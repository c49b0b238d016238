#!/usr/bin/env python3
"""Fixture driver for simcheck: proves every rule fires on the known-bad
translation units and stays silent on the known-good ones.

pytest-style test_* functions, but runnable with plain python3 (ctest
invokes this file directly; pytest is not a dependency). Each test runs
the real CLI as a subprocess against a synthetic compile_commands.json
spanning one fixture group's top-level sources, with the default hot
roots replaced by the fixtures' own (`HotMachine::step_event`,
`Dispatcher::step_event`). The group's fault/, model/ and sweep/
subdirectories hold no translation unit: only the pattern rules, which
walk every file under --root, see them.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent
REPO = FIXTURES.parent.parent
CLI = REPO / "tools" / "simcheck" / "cli.py"
HOT_ROOTS = ["HotMachine::step_event$", "Dispatcher::step_event$"]


def write_compdb(tmp: Path, group: Path) -> Path:
    entries = [{
        "directory": str(tmp),
        "file": str(cpp),
        "arguments": ["clang++", "-std=c++20", f"-I{FIXTURES}",
                      "-c", str(cpp)],
    } for cpp in sorted(group.glob("*.cpp"))]
    assert entries, f"no fixture sources in {group}"
    cc = tmp / f"compile_commands_{group.name}.json"
    cc.write_text(json.dumps(entries, indent=2), encoding="utf-8")
    return cc


def run_simcheck(group_name: str, tmp: Path):
    group = FIXTURES / group_name
    cc = write_compdb(tmp, group)
    findings_path = tmp / f"findings_{group_name}.json"
    state_path = tmp / f"state_{group_name}.json"
    cmd = [sys.executable, str(CLI),
           "--compile-commands", str(cc),
           "--root", str(group),
           "--no-default-hot-roots",
           "--findings-json", str(findings_path),
           "--state-json", str(state_path),
           "--quiet"]
    for hr in HOT_ROOTS:
        cmd += ["--hot-root", hr]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode in (0, 1), (
        f"simcheck crashed ({proc.returncode}) on {group_name}:"
        f"\n{proc.stdout}\n{proc.stderr}")
    findings = json.loads(findings_path.read_text(encoding="utf-8"))
    state = json.loads(state_path.read_text(encoding="utf-8"))
    return proc.returncode, findings, state


def in_file(findings, rule: str, basename: str, severity: str = "error"):
    return [f for f in findings
            if f["rule"] == rule and f["severity"] == severity
            and Path(f["file"]).name == basename]


def test_bad_fixtures_fire_every_rule(tmp: Path) -> None:
    rc, findings, state = run_simcheck("bad", tmp)
    assert rc == 1, f"expected exit 1 on bad/, got {rc}"

    ptr = in_file(findings, "ptr-key", "ptr_key.cpp")
    assert len(ptr) == 3, f"ptr-key: want 3 findings, got {ptr}"

    uit = in_file(findings, "unordered-iter", "unordered_iter.cpp")
    assert len(uit) >= 3, f"unordered-iter: want >=3 findings, got {uit}"

    hot = in_file(findings, "hot-alloc", "hot_alloc.cpp")
    assert len(hot) >= 2, f"hot-alloc: want >=2 findings, got {hot}"
    assert any("new" in f["message"] or "commit" in (f["chain"] or "")
               for f in hot), f"hot-alloc: transitive new not found: {hot}"

    # Every escape: the by-reference spawn() argument and lambda stored in
    # a local container, and the by-value lambda passed to spawn() and
    # invoked into it.
    coro = in_file(findings, "coro-ref-escape", "coro_escape.cpp")
    assert len(coro) == 4, f"coro-ref-escape: want 4 findings, got {coro}"
    assert any("push_back" in f["message"] for f in coro), coro
    assert sum("[budget]" in f["message"] for f in coro) == 2, coro

    shared = in_file(findings, "shared-static", "shared_static.cpp")
    assert len(shared) == 2, f"shared-static: want 2 errors, got {shared}"

    # Handler-unreachable mutable statics are advisory, never gating.
    off = [f for f in in_file(findings, "shared-static",
                              "shared_static.cpp", "info")
           if "g_offline_tally" in f["message"]]
    assert len(off) == 1, f"unreached static should be info-only: {findings}"

    # The state inventory must list the shared counter and name the event
    # handler that reaches it.
    entry = next(s for s in state["statics"]
                 if s["name"].endswith("g_event_count"))
    assert entry["class"] == "mutable-shared", entry
    assert entry["gating"] is True, entry
    assert any(rb.endswith("Dispatcher::step_event")
               for rb in entry["reached_by"]), entry
    offline = next(s for s in state["statics"]
                   if s["name"].endswith("g_offline_tally"))
    assert offline["gating"] is False, offline
    assert state["summary"]["mutable_shared"] >= 3, state["summary"]
    assert state["summary"]["gating"] == 2, state["summary"]

    # The gate's verdict is recorded in the state json itself.
    assert state["verdict"]["rule"] == "shared-static", state["verdict"]
    assert state["verdict"]["status"] == "fail", state["verdict"]
    assert state["verdict"]["gating_findings"] == 2, state["verdict"]


# (rule, file) -> findings the pattern rules must report on bad/. Files
# under fault/ and model/ also check directory gating: make_shared in
# model/flow.cpp is a fault-alloc construct but fires only model-alloc.
BAD_PATTERNS = {
    ("wall-clock", "patterns.cpp"): 1,
    ("randomness", "patterns.cpp"): 1,
    ("stdout", "patterns.cpp"): 1,
    ("threading", "patterns.cpp"): 2,
    ("fault-alloc", "fault/verdict.cpp"): 3,
    ("model-alloc", "model/flow.cpp"): 2,
}


def test_bad_fixtures_fire_every_pattern_rule(tmp: Path) -> None:
    _, findings, _ = run_simcheck("bad", tmp)
    rules = {rule for rule, _ in BAD_PATTERNS}
    got: dict[tuple[str, str], int] = {}
    for f in findings:
        if f["rule"] in rules:
            key = (f["rule"], f["file"])
            got[key] = got.get(key, 0) + 1
    assert got == BAD_PATTERNS, f"pattern findings: want {BAD_PATTERNS}, "\
        f"got {got}"


def test_good_fixtures_stay_silent(tmp: Path) -> None:
    rc, findings, state = run_simcheck("good", tmp)
    errors = [f for f in findings if f["severity"] == "error"]
    assert not errors, f"good/ must be error-free: {errors}"
    assert rc == 0, f"expected exit 0 on good/, got {rc}"

    # thread_local is an info note, never an error.
    infos = in_file(findings, "shared-static", "shared_static.cpp", "info")
    assert any("t_scratch" in f["message"] for f in infos), (
        f"thread_local should surface as info: {findings}")

    # The line-above allow suppresses the finding but the variable still
    # shows up in the audited inventory.
    entry = next(s for s in state["statics"]
                 if s["name"].endswith("g_debug_poke_count"))
    assert entry["class"] == "mutable-shared", entry
    assert entry["allowed"] is True, entry
    assert entry["gating"] is False, entry

    # A clean tree records a passing verdict with zero gating findings.
    assert state["verdict"]["status"] == "pass", state["verdict"]
    assert state["verdict"]["gating_findings"] == 0, state["verdict"]


def test_missing_compdb_is_usage_error(tmp: Path) -> None:
    proc = subprocess.run(
        [sys.executable, str(CLI),
         "--compile-commands", str(tmp / "nope.json"),
         "--root", str(FIXTURES)],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="simcheck_fixtures_") as td:
        tmp = Path(td)
        for name, fn in tests:
            try:
                fn(tmp)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"PASS {name}")
    if failed:
        print(f"{failed} fixture test(s) failed")
        return 1
    print("all simcheck fixture tests passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
