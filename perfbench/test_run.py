#!/usr/bin/env python3
"""Tests of the benchmark itself, on reduced cells (--short).

    python3 perfbench/test_run.py

The first run builds the runner (see run.py); later runs reuse the build.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SECONDS = 0.2


def flip(digest):
    return f"{int(digest, 16) ^ 1:016x}"


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.bands = run.load_bands()
        with open(HERE.parent / "BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def cli(self, workload, trace, cwd=run.REPO, runner=HERE / "run.py"):
        return subprocess.run(
            [sys.executable, str(runner), "--workload", workload, "--seed",
             "1", "--seconds", str(SECONDS), "--trace", str(trace), "--short"],
            cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=run.RUN_TIMEOUT_S)

    def records(self, workload, seed=1):
        return run.run_binary(self.binary, workload, seed, SECONDS, False,
                              short=True)

    def test_workloads_match_the_spec(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = self.cli(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        self.assertIn(f"  {name} = ", proc.stdout)

    def test_seed_decides_the_faulted_digest(self):
        def digests(seed):
            return [(run.cell_key(r), r["digest"])
                    for r in self.records("collectives-faults", seed)
                    if r["kind"] == "cell" and r["pass"] == 0]

        first = digests(1)
        self.assertEqual(first, digests(1))
        self.assertNotEqual(first, digests(2))

    def test_same_arguments_attempt_and_fail_the_same_cells(self):
        def outcome():
            recs = self.records("p2p-seq")
            result, failures = run.evaluate(recs, False, self.bands,
                                            short=True)
            cells = [(run.cell_key(r), r["pass"]) for r in recs
                     if r["kind"] == "cell"]
            return cells, result["attempted"], result["failed"], failures

        self.assertEqual(outcome(), outcome())

    def test_timings_are_divided_by_the_box_slowdown(self):
        recs = self.records("collectives-faults")
        calm, _ = run.evaluate(recs, False, self.bands, short=True)
        # The same run on a box twice as slow: every time and every
        # reference sample doubles, so no end-to-end time may move.
        for r in recs:
            for key in ("ctor_s", "run_s", "dtor_s", "ns_per_step"):
                if key in r:
                    r[key] *= 2
        slow, _ = run.evaluate(recs, False, self.bands, short=True)
        for name in ("wall_s", "setup_s", "mpi_calls_per_s"):
            self.assertAlmostEqual(slow["metrics"][name]["value"]
                                   / calm["metrics"][name]["value"], 1.0,
                                   places=9, msg=name)

    def test_corrupted_reference_digest_is_a_failed_cell(self):
        recs = self.records("wavefront-k4")
        clean, _ = run.evaluate(recs, False, self.bands, short=True)
        self.assertEqual(clean["failed"], 0)
        for r in recs:
            if r["kind"] == "ref":
                r["digest"] = flip(r["digest"])
        result, failures = run.evaluate(recs, False, self.bands, short=True)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertFalse(result["correct"])
        self.assertTrue(all(why.startswith("ref-mismatch")
                            for _, _, why in failures))

    def test_repetition_mismatch_is_a_failed_cell(self):
        recs = self.records("collectives-faults")
        later = next(r for r in recs if r["kind"] == "cell" and r["pass"] == 1)
        later["digest"] = flip(later["digest"])
        result, failures = run.evaluate(recs, False, self.bands, short=True)
        self.assertEqual(result["failed"], 1)
        self.assertTrue(result["correct"])
        self.assertEqual(failures[0][:2], (run.cell_key(later), 1))

    def test_fails_without_the_simulator_sources(self):
        alone = run.build_dir() / "isolated"
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(HERE, alone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", alone)
        proc = self.cli("p2p-seq", 0, cwd=alone,
                        runner=alone / "perfbench" / "run.py")
        shutil.rmtree(alone)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
