#!/usr/bin/env python3
"""Host-time benchmark of mpinetsim: one command, three workloads.

    python3 perfbench/run.py --workload p2p-seq --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the simulator libraries plus the mns_perfbench runner)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when unset, runs
the workload's cells, checks every cell's simulated output, and prints each
metric by name with its unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 runs the traced pass and the layer probes and
reports the per-layer metrics, writing the spans to
<build dir>/trace/<workload>-seed<seed>.json. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

WORKLOADS = ("p2p-seq", "wavefront-k4", "collectives-faults")

# The binary must finish inside the benchmark's per-run limit.
RUN_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "mpi_calls_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Every app.net cell of any workload, so each traced run reports the same
# metric names; cells a workload does not run report 0.
APP_CELLS = ("cg.ib", "cg.myri", "cg.qsn", "s3d50.ib", "s3d50.myri",
             "ft.ib", "ft.myri", "ft.qsn", "mg.ib", "mg.myri", "mg.qsn")

# Span names are "<kind>" or "<kind>:<label>"; self time is summed per kind.
SPAN_KINDS = ("cell", "ctor", "run", "audit", "dtor", "probe.sim",
              "probe.netfabric", "probe.netfabric.net", "probe.mpi",
              "probe.mpi.net")

# Host nanoseconds per step of the runner's speed reference (a pointer chase
# over 8 MiB, see SpeedReference in perfbench.cpp) on the measurement box
# in a calm period. A pass whose reference samples read slower than this ran
# on a slowed box; its timings are divided by the ratio.
REF_NS_PER_STEP = 128.0

# Cell failures that mean the simulated output is wrong. A repetition
# mismatch (the same cell giving different output within one process) is
# counted as a failed cell but leaves `correct` set: each value is a valid
# simulation within its band, it just depends on host heap layout.
NOT_REPRODUCIBLE = "repeat-mismatch"


def per_layer_units(bands):
    units = {
        "cluster.ctor_s": "s", "cluster.run_s": "s", "cluster.dtor_s": "s",
        "audit.report_s": "s",
        "sim.events": "count", "sim.events_cancelled": "count",
        "sim.host_ns_per_event": "ns", "sim.frames_allocated": "count",
        "sim.frame_pool_hit_ratio": "ratio", "sim.probe_ns_per_event": "ns",
        "netfabric.msgs_posted": "count", "netfabric.msgs_delivered": "count",
        "netfabric.events_per_msg": "ratio", "netfabric.express_msgs": "count",
        "netfabric.express_demotions": "count",
        "netfabric.probe_ns_per_msg": "ns",
        "fault.pkts_dropped": "count", "fault.pkts_corrupted": "count",
        "fault.pkts_retransmitted": "count", "fault.pkts_abandoned": "count",
        "fault.msgs_errored": "count", "fault.msgs_aborted": "count",
        "fault.retx_per_msg": "ratio",
        "mpi.calls": "count", "mpi.ptp_calls": "count",
        "mpi.collective_calls": "count", "mpi.intra_calls": "count",
        "mpi.bytes": "B", "mpi.host_ns_per_call": "ns",
        "mpi.probe_ns_per_msg": "ns",
        "pdes.effective_partitions": "count", "pdes.lbts_rounds": "count",
        "pdes.wire_msgs": "count", "pdes.batches": "count",
        "pdes.wire_per_msg": "ratio", "pdes.events_per_round": "ratio",
        "pdes.load_imbalance": "ratio", "pdes.speedup_vs_k1": "ratio",
    }
    for cell in APP_CELLS:
        units["apps.sim_s." + cell] = "s"
        if bands[cell]["paper"] is not None:
            units["apps.paper_err_pct." + cell] = "%"
    units["trace.overhead_pct"] = "%"
    for kind in SPAN_KINDS:
        units["trace.self_s." + kind] = "s"
    return units


def load_bands():
    with open(HERE / "bands.json") as f:
        return json.load(f)["cells"]


# --- build and run -----------------------------------------------------------

def build_dir():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not root.is_absolute():
        root = REPO / root
    return root


def build():
    """Configure (first use) and build the runner; returns its path."""
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources not found under {REPO / 'src'}")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    out = build_dir() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "mns_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "mns_perfbench"


def run_binary(binary, workload, seed, seconds, trace, short=False):
    """Runs one workload; returns the runner's records (one dict per line)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if short:
        cmd.append("--short")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{binary.name} exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


# --- checks ------------------------------------------------------------------

def cell_key(r):
    return f"{r['app']}.{r['net']}"


def check_cells(records, bands, short):
    """Returns [(record, [failure reasons])] for every timed cell run."""
    refs = {cell_key(r): r for r in records if r["kind"] == "ref"}
    first_digest = {}
    checked = []
    for r in (x for x in records if x["kind"] == "cell"):
        key = cell_key(r)
        why = []
        if r["error"]:
            why.append("threw: " + r["error"])
        else:
            if not r["verified"]:
                why.append("unverified")
            if r["posted"] != r["delivered"] + r["errored"] + r["aborted"]:
                why.append("conservation: posted != delivered+errored+aborted")
            if not r["faults"] and r["delivered"] != r["posted"]:
                why.append("undelivered: delivered != posted without faults")
            if r.get("audit_violations", 0):
                why.append(f"audit: {r['audit_violations']} violation(s)")
            band = bands.get(key)
            if not short and band and not band["lo"] <= r["sim_s"] <= band["hi"]:
                why.append(f"band: sim_s {r['sim_s']} outside "
                           f"[{band['lo']}, {band['hi']}]")
            if r["partitions"] > 1:
                ref = refs.get(key)
                if ref is None or ref["error"] or ref["digest"] != r["digest"]:
                    why.append("ref-mismatch: digest differs from the K=1 run")
            first = first_digest.setdefault(key, r["digest"])
            if r["digest"] != first:
                why.append(f"{NOT_REPRODUCIBLE}: digest {r['digest']} != "
                           f"first repetition {first}")
        checked.append((r, why))
    return checked


# --- metrics -----------------------------------------------------------------

def by_pass(cells):
    passes = {}
    for r in cells:
        passes.setdefault(r["pass"], []).append(r)
    return [passes[k] for k in sorted(passes)]


def host_s(r):
    return r["ctor_s"] + r["run_s"] + r["dtor_s"]


def ratio(num, den):
    return num / den if den else 0.0


def slowdowns(records):
    """Per pass: the box's slowdown while it ran, as the median of the
    pass's speed-reference samples over REF_NS_PER_STEP."""
    samples = {}
    for r in records:
        if r["kind"] == "speed":
            samples.setdefault(r["pass"], []).append(r["ns_per_step"])
    return {p: statistics.median(v) / REF_NS_PER_STEP
            for p, v in samples.items()}


def end_to_end(records, cells):
    """Host times, each divided by the slowdown of the pass it ran in."""
    slow = slowdowns(records)
    passes = by_pass([r for r in cells if not r["traced"] and not r["error"]])
    setups = [r["ctor_s"] / slow[r["pass"]]
              for r in records if r["kind"] == "setup"]
    done = next(r for r in records if r["kind"] == "done")
    return {
        "wall_s": statistics.median(
            sum(host_s(r) for r in p) / slow[p[0]["pass"]] for p in passes),
        "setup_s": statistics.median(setups),
        "mpi_calls_per_s": statistics.median(
            ratio(sum(r["mpi_calls"] for r in p),
                  sum(r["run_s"] for r in p) / slow[p[0]["pass"]])
            for p in passes),
        "peak_rss_mb": done["peak_rss_kb"] / 1024.0,
    }


def self_times(spans):
    """Per span kind: duration minus the part its child spans cover.

    Also stores each span's own self time in it, for the trace file."""
    child_s = {}
    for s in spans:
        if s["parent"]:
            child_s[s["parent"]] = (child_s.get(s["parent"], 0.0)
                                    + s["end_s"] - s["start_s"])
    out = {kind: 0.0 for kind in SPAN_KINDS}
    for s in spans:
        kind = s["name"].split(":", 1)[0]
        s["self_s"] = s["end_s"] - s["start_s"] - child_s.get(s["id"], 0.0)
        out[kind] = out.get(kind, 0.0) + s["self_s"]
    return out


def per_layer(records, cells, bands):
    traced = [r for r in cells if r["traced"] and not r["error"]]
    baseline = [r for r in cells if not r["traced"] and not r["error"]]
    refs = [r for r in records if r["kind"] == "ref" and not r["error"]]
    probes = [r for r in records if r["kind"] == "probe"]
    spans = [r for r in records if r["kind"] == "span"]

    def tot(field, rows=traced):
        return sum(r[field] for r in rows)

    def probe(layer):
        vals = [p["ns_per_unit"] for p in probes if p["layer"] == layer]
        return statistics.mean(vals) if vals else 0.0

    events, posted, run_s = tot("events"), tot("posted"), tot("run_s")
    rounds = tot("pdes_rounds")
    imbalance = [max(r["part_events"]) / statistics.mean(r["part_events"])
                 for r in traced if r["part_events"] and sum(r["part_events"])]
    parted = [r for r in traced if r["partitions"] > 1]
    parted_keys = {cell_key(r) for r in parted}
    parted_refs = [r for r in refs if cell_key(r) in parted_keys]
    m = {
        "cluster.ctor_s": tot("ctor_s"),
        "cluster.run_s": run_s,
        "cluster.dtor_s": tot("dtor_s"),
        "audit.report_s": tot("audit_s"),
        "sim.events": events,
        "sim.events_cancelled": tot("events_cancelled"),
        "sim.host_ns_per_event": ratio(run_s * 1e9, events),
        "sim.frames_allocated": tot("frames_allocated"),
        "sim.frame_pool_hit_ratio": ratio(tot("frame_pool_hits"),
                                          tot("frames_allocated")),
        "sim.probe_ns_per_event": probe("sim"),
        "netfabric.msgs_posted": posted,
        "netfabric.msgs_delivered": tot("delivered"),
        "netfabric.events_per_msg": ratio(events, posted),
        "netfabric.express_msgs": tot("express_msgs"),
        "netfabric.express_demotions": tot("express_demotions"),
        "netfabric.probe_ns_per_msg": probe("netfabric"),
        "fault.pkts_dropped": tot("pkts_dropped"),
        "fault.pkts_corrupted": tot("pkts_corrupted"),
        "fault.pkts_retransmitted": tot("pkts_retransmitted"),
        "fault.pkts_abandoned": tot("pkts_abandoned"),
        "fault.msgs_errored": tot("errored"),
        "fault.msgs_aborted": tot("aborted"),
        "fault.retx_per_msg": ratio(tot("pkts_retransmitted"), posted),
        "mpi.calls": tot("mpi_calls"),
        "mpi.ptp_calls": tot("ptp_calls"),
        "mpi.collective_calls": tot("collective_calls"),
        "mpi.intra_calls": tot("intra_calls"),
        "mpi.bytes": tot("bytes"),
        "mpi.host_ns_per_call": ratio(run_s * 1e9, tot("mpi_calls")),
        "mpi.probe_ns_per_msg": probe("mpi"),
        "pdes.effective_partitions": max(
            (r["eff_partitions"] for r in traced), default=0),
        "pdes.lbts_rounds": rounds,
        "pdes.wire_msgs": tot("pdes_wire"),
        "pdes.batches": tot("pdes_batches"),
        "pdes.wire_per_msg": ratio(tot("pdes_wire"), posted),
        "pdes.events_per_round": ratio(events, rounds),
        "pdes.load_imbalance": statistics.mean(imbalance) if imbalance else 0.0,
        "pdes.speedup_vs_k1": ratio(tot("run_s", parted_refs),
                                    tot("run_s", parted)),
    }
    sim_s = {}
    for r in traced:
        sim_s.setdefault(cell_key(r), r["sim_s"])
    for cell in APP_CELLS:
        m["apps.sim_s." + cell] = sim_s.get(cell, 0.0)
        paper = bands[cell]["paper"]
        if paper is not None:
            m["apps.paper_err_pct." + cell] = (
                abs(sim_s[cell] - paper) / paper * 100.0 if cell in sim_s else 0.0)
    untraced_wall = sum(host_s(r) for r in baseline)
    m["trace.overhead_pct"] = ratio(
        (sum(host_s(r) for r in traced) - untraced_wall) * 100.0, untraced_wall)
    for kind, v in self_times(spans).items():
        m["trace.self_s." + kind] = v
    return m


def evaluate(records, trace, bands, short=False):
    """Checks the cells and computes the metrics of one run.

    Returns (result, failures): result is the final JSON object, failures a
    list of (cell label, pass, reason) for the report."""
    checked = check_cells(records, bands, short)
    failures = [(cell_key(r), r["pass"], why)
                for r, reasons in checked for why in reasons]
    failed = sum(1 for _, reasons in checked if reasons)
    correct = all(why.startswith(NOT_REPRODUCIBLE) for _, _, why in failures)
    cells = [r for r, _ in checked]
    if trace:
        values = per_layer(records, cells, bands)
        units = per_layer_units(bands)
    else:
        values = end_to_end(records, cells)
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return ({"correct": correct, "attempted": len(checked), "failed": failed,
             "metrics": metrics}, failures)


def write_trace(records, workload, seed):
    """Writes the traced run's spans (with self time) and cell counters."""
    path = build_dir() / "trace" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [r for r in records if r["kind"] == "span"]
    cells = [r for r in records if r["kind"] == "cell" and r["traced"]]
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "spans": spans,
                   "cells": cells}, f, indent=1)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--short", action="store_true",
                    help="reduced cells (test-size inputs on 4 nodes); "
                         "used by the benchmark's own tests")
    args = ap.parse_args(argv)

    try:
        binary = build()
        records = run_binary(binary, args.workload, args.seed, args.seconds,
                             args.trace, args.short)
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    bands = load_bands()
    result, failures = evaluate(records, args.trace, bands, args.short)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: cells attempted "
          f"{result['attempted']}, failed {result['failed']}")
    for cell, pas, why in failures:
        print(f"  FAILED {cell} pass {pas}: {why}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.9g} {m['unit']}")
    if args.trace:
        print("  note: self time inside Cluster::run is not split into "
              "engine, fabric and MPI; that needs spans inside the program.")
        print(f"  spans written to {write_trace(records, args.workload, args.seed)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
