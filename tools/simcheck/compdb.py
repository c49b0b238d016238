"""Input enumeration: the translation units under a source root from
compile_commands.json plus the project headers they pull in (what the
parser reads), and every C++ source file under the root (what the
pattern rules read, so a header no unit includes is still linted)."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
SOURCE_SUFFIXES = {".hpp", ".cpp"}


def load_compdb(path: Path) -> list[dict]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"simcheck: cannot read {path}: {e}")
    if not isinstance(data, list):
        raise SystemExit(f"simcheck: {path} is not a compilation database")
    return data


def entry_args(entry: dict) -> list[str]:
    if "arguments" in entry:
        return list(entry["arguments"])
    return shlex.split(entry.get("command", ""))


def tu_sources(compdb: list[dict], root: Path) -> list[Path]:
    """Translation-unit sources from the database that live under root."""
    seen: set[Path] = set()
    out: list[Path] = []
    root = root.resolve()
    for entry in compdb:
        f = Path(entry.get("file", ""))
        if not f.is_absolute():
            f = Path(entry.get("directory", ".")) / f
        f = f.resolve()
        if f in seen or not f.exists():
            continue
        try:
            f.relative_to(root)
        except ValueError:
            continue
        seen.add(f)
        out.append(f)
    return sorted(out)


def project_headers(sources: list[Path], root: Path,
                    include_dirs: list[Path]) -> list[Path]:
    """Headers transitively reachable from `sources` via quoted includes,
    restricted to files under root. Keeps the parser honest: it sees
    exactly the project code the TUs compile."""
    root = root.resolve()
    seen: set[Path] = set()
    work = list(sources)
    headers: list[Path] = []
    while work:
        f = work.pop()
        if f in seen:
            continue
        seen.add(f)
        try:
            text = f.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        for inc in _INCLUDE_RE.findall(text):
            for base in [f.parent] + include_dirs:
                cand = (base / inc).resolve()
                if cand.exists():
                    try:
                        cand.relative_to(root)
                    except ValueError:
                        break
                    if cand not in seen:
                        headers.append(cand)
                        work.append(cand)
                    break
    return sorted(set(headers))


def include_dirs_of(compdb: list[dict]) -> list[Path]:
    dirs: list[Path] = []
    seen = set()
    for entry in compdb:
        args = entry_args(entry)
        base = Path(entry.get("directory", "."))
        i = 0
        while i < len(args):
            a = args[i]
            d = None
            if a == "-I" and i + 1 < len(args):
                d = args[i + 1]
                i += 1
            elif a.startswith("-I"):
                d = a[2:]
            if d:
                p = Path(d)
                if not p.is_absolute():
                    p = base / p
                p = p.resolve()
                if p not in seen:
                    seen.add(p)
                    dirs.append(p)
            i += 1
    return dirs


def collect_inputs(compdb_path: Path, root: Path) -> list[tuple[Path, str]]:
    """(path, display name) pairs: TU sources + project headers, with
    display names relative to root."""
    db = load_compdb(compdb_path)
    srcs = tu_sources(db, root)
    incs = include_dirs_of(db)
    hdrs = project_headers(srcs, root, incs)
    out = []
    for p in sorted(set(srcs) | set(hdrs)):
        out.append((p, p.relative_to(root.resolve()).as_posix()))
    return out


def source_tree(root: Path) -> list[tuple[Path, str]]:
    """(path, display name) pairs for every C++ source file under root."""
    root = root.resolve()
    return [(p, p.relative_to(root).as_posix())
            for p in sorted(root.rglob("*"))
            if p.suffix in SOURCE_SUFFIXES and p.is_file()]
