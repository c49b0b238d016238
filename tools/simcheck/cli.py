"""simcheck command line.

    python3 tools/simcheck/cli.py --compile-commands build/compile_commands.json \
        --root src --state-json build/simcheck_state.json

Exit status: 0 clean (or only info notes), 1 error findings, 2 usage /
environment failure."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ in (None, ""):  # direct invocation: bootstrap the package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from simcheck import compdb, parse, report, rules  # type: ignore
else:
    from . import compdb, parse, report, rules


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simcheck",
        description="semantic determinism analysis for mpinetsim")
    p.add_argument("--compile-commands", required=True, type=Path,
                   help="path to compile_commands.json")
    p.add_argument("--root", required=True, type=Path,
                   help="source root to analyze (files outside are ignored)")
    p.add_argument("--state-json", type=Path, default=None,
                   help="write the shared-state inventory here")
    p.add_argument("--findings-json", type=Path, default=None,
                   help="write findings as JSON (for the fixture driver)")
    p.add_argument("--hot-root", action="append", default=[],
                   metavar="REGEX",
                   help="extra hot-path root (repeatable); replaces the "
                        "defaults when --no-default-hot-roots is given")
    p.add_argument("--no-default-hot-roots", action="store_true")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the text report (JSON outputs still "
                        "written)")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.compile_commands.exists():
        print(f"simcheck: {args.compile_commands} not found — configure "
              "with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON first",
              file=sys.stderr)
        return 2
    root = args.root.resolve()
    if not root.is_dir():
        print(f"simcheck: root {root} is not a directory", file=sys.stderr)
        return 2

    hot_roots = list(rules.DEFAULT_HOT_ROOTS)
    if args.no_default_hot_roots:
        hot_roots = []
    hot_roots += args.hot_root
    if not hot_roots:
        print("simcheck: no hot roots configured", file=sys.stderr)
        return 2

    inputs = compdb.collect_inputs(args.compile_commands, root)
    if not inputs:
        print(f"simcheck: no sources under {root} in "
              f"{args.compile_commands}", file=sys.stderr)
        return 2
    sm = parse.parse_files(inputs)
    tree = compdb.source_tree(root)
    findings, inventory = rules.run_all(sm, tree, hot_roots)

    if args.state_json:
        report.write_state_json(args.state_json, inventory, hot_roots,
                                findings)
    if args.findings_json:
        args.findings_json.write_text(report.findings_json(findings),
                                      encoding="utf-8")
    if not args.quiet:
        print(report.render_text(findings, len(sm.files), len(tree),
                                 len(sm.functions)))
    return 1 if any(f.severity == "error" for f in findings) else 0


if __name__ == "__main__":
    raise SystemExit(main())
