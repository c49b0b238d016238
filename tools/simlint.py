#!/usr/bin/env python3
"""simlint: domain lint for the mpinetsim simulator's library code.

The simulator's contract is determinism: two runs of the same configuration
must produce bit-identical results. That bans whole categories of C++ from
src/ that an ordinary linter would wave through. simlint enforces them
statically:

  wall-clock      no std::chrono::system_clock / steady_clock /
                  high_resolution_clock, time(), gettimeofday(),
                  clock_gettime() — simulated time comes from sim::Engine.
  randomness      no std::random_device, rand(), srand() — all randomness
                  flows through the seeded generators in util/rng.hpp.
  stdout          no std::cout / std::cerr / printf in library code —
                  libraries return data; printing belongs to bench/,
                  examples/, and tools/.
  threading       no std::thread / jthread / async / mutex /
                  condition_variable / atomic / future / barrier / latch /
                  semaphore in simulator code. Parallelism lives ONLY
                  between independent simulations, in src/sweep/ (the one
                  whitelisted directory); a simulation itself is
                  single-threaded by contract, which is what makes runs
                  deterministic and --jobs N bit-identical to --jobs 1.
  fault-alloc     no heap allocation (new / malloc / make_shared /
                  make_unique / std::function) and no <random>
                  distributions in src/fault — the injector's verdict
                  paths run per packet and must stay allocation-free,
                  and libstdc++/libc++ distributions are not bit-portable
                  (determinism would depend on the host toolchain).
  model-alloc     no std::make_shared / std::function in src/model — the
                  message data path is pooled state machines driven by raw
                  EventFn continuations, allocation-free after warm-up.
                  Per-message (never per-packet) closures and control-path
                  setup code carry explicit simlint-allow comments.
  coro-ref-capture  no lambda coroutine that captures by reference and
                  ESCAPES its enclosing scope. The lambda object dies with
                  the scope, but the coroutine frame built from it lives
                  until completion — captured references dangle across the
                  first suspension. Three idioms are provably same-frame
                  and therefore exempt:
                    co_await [&]{ ... }()           (awaited in place)
                    auto f = [&]() -> Task<> {...}; (every use of `f` in
                    co_await f(...);                 the file is awaited)
                    c.run([&](Comm&) -> Task<> {})  (*.run() drives the
                                                     engine synchronously)
                  Anything else — spawn() arguments, returns, stored
                  lambdas — is flagged. Pass state as coroutine parameters
                  instead (the `[](Self& self, ...) -> Task<>` idiom).
                  (tools/simcheck re-checks this same property with scope
                  analysis over the AST; simlint keeps the fast regex
                  version so a bare checkout still gates.)

Suppress a finding with a comment naming the rule, either on the finding's
own line or on the line above it (intervening comment-only lines are
fine — the allow blesses the next code line):
    foo();  // simlint-allow: wall-clock
    // simlint-allow: wall-clock
    foo();
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

EXTENSIONS = {".hpp", ".cpp", ".h", ".cc", ".cxx"}


@dataclass(frozen=True)
class Rule:
    """One pattern rule plus its directory gating.

    only_dirs:   when non-empty, the rule fires only for files whose path
                 contains one of these directory names.
    exempt_dirs: files whose path contains one of these are skipped.
    """
    name: str
    pattern: re.Pattern
    message: str
    only_dirs: frozenset[str] = field(default_factory=frozenset)
    exempt_dirs: frozenset[str] = field(default_factory=frozenset)

    def applies_to(self, path: Path) -> bool:
        parts = set(path.parts)
        if self.only_dirs and not (self.only_dirs & parts):
            return False
        if self.exempt_dirs & parts:
            return False
        return True


PATTERN_RULES = [
    Rule(
        "wall-clock",
        re.compile(
            r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
            r"|(?<![\w.:>])(gettimeofday|clock_gettime|localtime|gmtime)\s*\("
            r"|(?<![\w.:>])time\s*\(\s*(NULL|nullptr|0)?\s*\)"
        ),
        "wall-clock access in library code; simulated time comes from "
        "sim::Engine::now()",
    ),
    Rule(
        "randomness",
        re.compile(
            r"std::random_device"
            r"|(?<![\w.:>])s?rand\s*\("
        ),
        "unseeded randomness; use the seeded generators in util/rng.hpp",
    ),
    Rule(
        "threading",
        re.compile(
            r"std::(thread|jthread|async|launch|mutex|shared_mutex"
            r"|recursive_mutex|timed_mutex|scoped_lock|lock_guard"
            r"|unique_lock|shared_lock|condition_variable(_any)?"
            r"|atomic\w*|future|shared_future|packaged_task|barrier"
            r"|latch|counting_semaphore|binary_semaphore|stop_token"
            r"|this_thread)\b"
            r"|#\s*include\s*<(thread|atomic|mutex|shared_mutex|future"
            r"|condition_variable|barrier|latch|semaphore|stop_token)>"
        ),
        "threading primitive in simulator code; a simulation is "
        "single-threaded by contract — parallelism belongs between "
        "simulations (src/sweep/) only",
        # The one place allowed to touch threads: the between-simulations
        # sweep runner.
        exempt_dirs=frozenset({"sweep"}),
    ),
    Rule(
        "stdout",
        re.compile(
            r"std::(cout|cerr|clog)\b"
            r"|(?<!\w)f?printf\s*\("
            r"|(?<!\w)puts\s*\("
        ),
        "stdout/stderr output in library code; return data and let "
        "bench/examples/tools print",
    ),
    Rule(
        "fault-alloc",
        re.compile(
            r"std::(make_shared|make_unique|function)\b"
            r"|(?<![\w.:>])(malloc|calloc|realloc)\s*\("
            r"|(?<![\w:])new\s+[A-Za-z_:]"
            r"|std::(mt19937(_64)?|default_random_engine|minstd_rand0?"
            r"|uniform_(int|real)_distribution|bernoulli_distribution)\b"
            r"|#\s*include\s*<random>"
        ),
        "heap allocation or non-portable RNG in src/fault; the injector's "
        "verdict paths (packet_verdict, reg_should_fail) are called per "
        "packet and must stay allocation-free, drawing only from the "
        "pre-seeded util/rng.hpp streams sized at construction — "
        "<random> distributions are not bit-portable across standard "
        "libraries and would break cross-platform determinism",
        # The chaos layer: packet_verdict / reg_should_fail sit on the
        # per-packet data path.
        only_dirs=frozenset({"fault"}),
    ),
    Rule(
        "model-alloc",
        re.compile(r"std::(make_shared|function)\b"),
        "type-erased/shared allocation in src/model hot-path code; the "
        "data path runs one pooled state machine per message (raw EventFn "
        "continuations, freelist recycling) — per-message closures or "
        "control-path code must carry an explicit simlint-allow",
        # The machine-model layer only; MPI devices and apps may use
        # type-erased closures freely.
        only_dirs=frozenset({"model"}),
    ),
]

ALLOW_RE = re.compile(r"simlint-allow:\s*([\w-]+)")


def strip_comments_and_strings(text: str) -> tuple[str, dict[int, set[str]]]:
    """Blank out comments, string and char literals (preserving line
    structure) so rules never fire on prose. Returns the stripped text and
    the per-line suppressions harvested from comments.

    A `// simlint-allow: rule` comment suppresses its own line and — so
    the allow can sit on the line above the finding — the next *code*
    line below it. Intervening comment-only lines don't break the chain
    (they are blank after stripping)."""
    out = []
    allows: dict[int, set[str]] = {}
    pending: list[tuple[int, str]] = []  # (comment line, rule) to forward
    i, n = 0, len(text)
    line = 1

    def record_allow(comment: str, line_no: int) -> None:
        for m in ALLOW_RE.finditer(comment):
            allows.setdefault(line_no, set()).add(m.group(1))
            pending.append((line_no, m.group(1)))

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            record_allow(text[i:j], line)
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            comment = text[i:j]
            end_line = line + comment.count("\n")
            record_allow(comment, end_line)
            out.append("".join(ch if ch == "\n" else " " for ch in comment))
            line = end_line
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            literal = text[i:j]
            out.append(quote + "".join(
                ch if ch == "\n" else " " for ch in literal[1:-1]) + quote
                if len(literal) >= 2 else literal)
            line += literal.count("\n")
            i = j
        else:
            if c == "\n":
                line += 1
            out.append(c)
            i += 1

    stripped = "".join(out)
    # Forward each allow to the next code line below it (first line that
    # is non-blank after stripping), so the comment can sit above the
    # finding — including across a run of explanatory comment lines.
    stripped_lines = stripped.split("\n")
    for line_no, rule in pending:
        for below in range(line_no + 1, len(stripped_lines) + 1):
            if stripped_lines[below - 1].strip():
                allows.setdefault(below, set()).add(rule)
                break
    return stripped, allows


LAMBDA_REF_INTRO_RE = re.compile(r"\[[^\[\]]*&[^\[\]]*\]")
LAMBDA_ANY_INTRO_RE = re.compile(r"\[[^\[\]]*\]")
SUSPEND_RE = re.compile(r"\bco_await\b|\bco_yield\b|\bco_return\b")


def lambda_body_span(stripped: str, intro_end: int):
    """Given the index just past a lambda introducer, return the
    [start, end) span of its `{...}` body, or None if this isn't a lambda
    (array subscript, attribute, ...)."""
    i = intro_end
    n = len(stripped)
    while i < n and stripped[i].isspace():
        i += 1
    # Optional template parameter list <...>
    if i < n and stripped[i] == "<":
        depth = 1
        i += 1
        while i < n and depth:
            depth += {"<": 1, ">": -1}.get(stripped[i], 0)
            i += 1
    while i < n and stripped[i].isspace():
        i += 1
    # Optional parameter list (...)
    if i < n and stripped[i] == "(":
        depth = 1
        i += 1
        while i < n and depth:
            depth += {"(": 1, ")": -1}.get(stripped[i], 0)
            i += 1
    # Specifiers / trailing return type up to the body brace.
    j = stripped.find("{", i)
    if j == -1:
        return None
    between = stripped[i:j]
    if ";" in between or ")" in between:
        return None  # not a lambda body (e.g. array subscript expression)
    depth = 1
    k = j + 1
    while k < n and depth:
        depth += {"{": 1, "}": -1}.get(stripped[k], 0)
        k += 1
    return j, k


def blank_nested_lambda_bodies(body: str) -> str:
    """Return `body` with the bodies of nested lambdas replaced by spaces,
    so a suspension point inside a nested lambda isn't attributed to the
    outer one."""
    out = body
    pos = 1  # skip the outer '{'
    while True:
        m = LAMBDA_ANY_INTRO_RE.search(out, pos)
        if not m:
            return out
        span = lambda_body_span(out, m.end())
        if span is None:
            pos = m.end()
            continue
        j, k = span
        out = out[:j] + " " * (k - j) + out[k:]
        pos = k


def is_same_frame_use(stripped: str, intro_start: int, body_end: int) -> bool:
    """True for the three provably same-frame idioms (see module doc):
    immediately co_awaited, named-and-only-awaited, or passed to a
    synchronous `.run(...)` driver."""
    before = stripped[:intro_start]

    # co_await [&]{...}()  — awaited in place.
    if re.search(r"\bco_await\s*$", before):
        return True

    # c.run([&]{...}) / run([&]{...}) — the driver runs the engine to
    # completion before returning, so the enclosing frame outlives the
    # coroutine.
    if re.search(r"\brun\s*\(\s*$", before):
        return True

    # auto name = [&]{...};  with every later use of `name` co_awaited in
    # the declaring frame.
    decl = re.search(r"\bauto\s+(\w+)\s*=\s*$", before)
    if decl:
        name = decl.group(1)
        uses = 0
        for u in re.finditer(rf"\b{re.escape(name)}\b", stripped):
            if decl.start() <= u.start() < body_end:
                continue  # the declaration itself
            if not re.search(r"\bco_await\s*$", stripped[:u.start()]):
                return False  # escapes: stored, passed, spawned, ...
            uses += 1
        return uses > 0
    return False


def find_ref_capture_coroutines(stripped: str):
    """Yield (line, capture) for lambdas that capture by reference, have a
    suspension point in their own body, and escape the enclosing frame."""
    for m in LAMBDA_REF_INTRO_RE.finditer(stripped):
        span = lambda_body_span(stripped, m.end())
        if span is None:
            continue
        j, k = span
        own_body = blank_nested_lambda_bodies(stripped[j:k])
        if not SUSPEND_RE.search(own_body):
            continue
        if is_same_frame_use(stripped, m.start(), k):
            continue
        line = stripped.count("\n", 0, m.start()) + 1
        yield line, m.group(0)


def lint_file(path: Path) -> list[tuple[Path, int, str, str]]:
    text = path.read_text(encoding="utf-8", errors="replace")
    stripped, allows = strip_comments_and_strings(text)
    findings = []

    def allowed(rule: str, line: int) -> bool:
        return rule in allows.get(line, set())

    active = [r for r in PATTERN_RULES if r.applies_to(path)]
    for line_no, line_text in enumerate(stripped.splitlines(), start=1):
        for rule in active:
            if rule.pattern.search(line_text) and \
                    not allowed(rule.name, line_no):
                findings.append((path, line_no, rule.name, rule.message))

    for line_no, capture in find_ref_capture_coroutines(stripped):
        if not allowed("coro-ref-capture", line_no):
            findings.append((
                path, line_no, "coro-ref-capture",
                f"lambda {capture} captures by reference and suspends "
                "(co_await in body): captured references dangle once the "
                "enclosing scope returns; pass state as coroutine "
                "parameters instead",
            ))
    return findings


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:] if not a.startswith("-")]
    if "--help" in argv or "-h" in argv:
        print(__doc__)
        return 0
    if not args:
        print("usage: simlint.py <dir-or-file>...", file=sys.stderr)
        return 2

    files: list[Path] = []
    for arg in args:
        p = Path(arg)
        if p.is_dir():
            files.extend(sorted(
                f for f in p.rglob("*") if f.suffix in EXTENSIONS))
        elif p.is_file():
            files.append(p)
        else:
            print(f"simlint: no such path: {p}", file=sys.stderr)
            return 2

    findings = []
    for f in files:
        findings.extend(lint_file(f))

    for path, line, rule, message in findings:
        print(f"{path}:{line}: [{rule}] {message}")
    summary = (
        f"simlint: {len(findings)} finding(s) in {len(files)} file(s)")
    print(summary, file=sys.stderr if findings else sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
