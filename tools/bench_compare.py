#!/usr/bin/env python3
"""bench_compare: gate engine-performance regressions between two
google-benchmark JSON reports (BENCH_engine.json).

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.30]
                     [--require NAME_REGEX ...]

Compares items_per_second for every benchmark present in BOTH reports
(aggregates like _mean/_median and benchmarks without an items/s counter
are skipped). A benchmark whose throughput dropped by more than the
threshold (default 30%, chosen to ride out CI-runner noise while still
catching real data-path regressions like a per-packet allocation
creeping back in) fails the run.

New benchmarks (in CURRENT only) are labelled "new, not compared" and
never fail — a benchmark added in the candidate has no baseline row and
the gate must not block adding it. Retired ones (BASELINE only) are
reported but never fail either. --require NAME_REGEX (repeatable) is
satisfied by any CURRENT benchmark with a usable items/s counter,
including brand-new ones: load-bearing benchmarks (e.g.
BM_RetransmitStorm, or a freshly added benchmark) must be
present in the candidate report, whether or not the baseline knows
them yet.

Exit status: 0 ok, 1 regression(s), 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path


def load_items_per_second(path: Path) -> dict[str, float]:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    out: dict[str, float] = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # _mean/_median/_stddev aggregates
        ips = b.get("items_per_second")
        name = b.get("name")
        if name and isinstance(ips, (int, float)) and ips > 0:
            out[name] = float(ips)
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", type=Path)
    ap.add_argument("current", type=Path)
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="max tolerated fractional throughput drop "
                         "(default 0.30)")
    ap.add_argument("--require", action="append", default=[],
                    metavar="NAME_REGEX",
                    help="fail unless CURRENT contains a comparable "
                         "benchmark matching this regex (repeatable)")
    args = ap.parse_args(argv[1:])

    base = load_items_per_second(args.baseline)
    cur = load_items_per_second(args.current)

    # --require gates on the CURRENT report only: a new benchmark (no
    # baseline row yet) still satisfies its pattern.
    missing = [pat for pat in args.require
               if not any(re.search(pat, name) for name in cur)]
    if missing:
        for pat in missing:
            print(f"bench_compare: required benchmark missing from "
                  f"{args.current}: no name matches '{pat}'",
                  file=sys.stderr)
        return 1

    regressions = []
    new_count = 0
    width = max((len(n) for n in base.keys() | cur.keys()), default=0)
    for name in sorted(base.keys() | cur.keys()):
        if name not in base:
            new_count += 1
            print(f"  {name:<{width}}  {cur[name]:>14.0f} items/s  "
                  f"(new, not compared)")
            continue
        if name not in cur:
            print(f"  {name:<{width}}  RETIRED")
            continue
        ratio = cur[name] / base[name]
        verdict = "ok"
        if ratio < 1.0 - args.threshold:
            verdict = "REGRESSION"
            regressions.append((name, ratio))
        print(f"  {name:<{width}}  {base[name]:>14.0f} -> {cur[name]:>14.0f} "
              f"items/s  ({ratio:6.2%})  {verdict}")

    if regressions:
        print(f"bench_compare: {len(regressions)} benchmark(s) lost more "
              f"than {args.threshold:.0%} throughput", file=sys.stderr)
        return 1
    if not base:
        print(f"bench_compare: baseline has no comparable benchmarks; "
              f"{new_count} new benchmark(s) recorded, nothing to gate")
        return 0
    print("bench_compare: within threshold"
          + (f" ({new_count} new, not compared)" if new_count else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
