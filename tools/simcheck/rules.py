"""simcheck's rules, evaluated over a SourceModel and the source tree.

Every rule fires on positive evidence only; suppression is per-line via
`// simcheck-allow: <rule>` (same line or the line above). Severity
'info' findings are reported and land in simcheck_state.json but never
affect the exit status."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .lex import strip_and_harvest
from .model import Finding, Function, SourceModel

# Functions that anchor the simulator's per-event hot paths: the MsgFlow
# packet machine, the fault injector's verdict paths, and the engine's
# dispatch loop. Matched against Function.qname.
DEFAULT_HOT_ROOTS = [
    r"NetFabric::(flow_step|deliver|lose_packet|arm_rto|resend_lost|"
    r"fail_flow|rto_delay|release_flow)$",
    r"MsgFlow::thunk$",
    r"Injector::(packet_verdict|reg_should_fail)$",
    r"Engine::step$",
    # Fail-stop degradation fast path: once a link is learned dead every
    # later message on it terminates through these per-message — they are
    # as hot as delivery under a fail-stop plan. (learn_link_dead and the
    # fabrics' degrade_delay overrides are reached from fail_flow /
    # sender_loop and covered transitively.)
    r"NetFabric::(abort_degraded|learn_link_dead|link_known_dead)$",
    r"(IbFabric|GmFabric|ElanFabric)::degrade_delay$",
    # Leaf waits: every stage a coroutine co_awaits (a pipe slot, a host
    # bus DMA, CPU compute/overhead) reserves and schedules its resume
    # here, once per packet or MPI step.
    r"(Pipe::Slot|Cpu::Spend)::await_suspend$",
    r"Pipe::(reserve|reserve_after)$",
    r"Cpu::(compute|busy)$",
]

# Ambiguity cap for name-only call resolution: beyond this many same-name
# candidates we treat the call as unresolvable rather than explode the
# graph with false edges.
MAX_CANDIDATES = 8

STD_NOISE = frozenset({
    "move", "forward", "swap", "get", "min", "max", "abs", "size",
    "begin", "end", "cbegin", "cend", "data", "empty", "find", "count",
    "clear", "front", "back", "at", "to_string", "sort", "stable_sort",
    "tie", "exchange", "declval",
})


class CallGraph:
    def __init__(self, sm: SourceModel):
        self.sm = sm
        self.by_name: dict[str, list[Function]] = {}
        self.by_cls_name: dict[tuple[str, str], list[Function]] = {}
        for fn in sm.functions:
            self.by_name.setdefault(fn.name, []).append(fn)
            if fn.cls:
                short = fn.cls.rsplit("::", 1)[-1]
                self.by_cls_name.setdefault((short, fn.name),
                                            []).append(fn)
        self._edges: dict[int, list[Function]] = {}

    def _receiver_class(self, caller: Function, base: str) -> str:
        """Short class name of a receiver expression base, if derivable."""
        if base in ("this", ""):
            return caller.cls.rsplit("::", 1)[-1] if caller.cls else ""
        cls = self.sm.classes.get(caller.cls)
        ty = ""
        if cls and base in cls.member_types:
            ty = cls.member_types[base]
        if not ty:
            return ""
        for (short, _), _fns in self.by_cls_name.items():
            if re.search(r"\b" + re.escape(short) + r"\b", ty):
                return short
        return ""

    def _derived_of(self, short: str) -> list[str]:
        out = []
        for cq, ci in self.sm.classes.items():
            if short in ci.bases:
                out.append(cq.rsplit("::", 1)[-1])
        return out

    def callees(self, fn: Function) -> list[Function]:
        # keyed by object identity: overload sets share a qname
        if id(fn) in self._edges:
            return self._edges[id(fn)]
        out: list[Function] = []
        seen: set[int] = set()

        def add(fns: list[Function]) -> None:
            for f in fns:
                if id(f) not in seen:
                    seen.add(id(f))
                    out.append(f)

        for cs in fn.calls:
            if cs.qualifier == "std":
                continue
            resolved = False
            if cs.qualifier:
                key = (cs.qualifier, cs.name)
                if key in self.by_cls_name:
                    add(self.by_cls_name[key])
                    resolved = True
            if not resolved and cs.receiver:
                base = cs.receiver.split(".")[0]
                short = self._receiver_class(fn, base)
                if short:
                    hit = self.by_cls_name.get((short, cs.name))
                    if hit:
                        add(hit)
                        resolved = True
                    # virtual dispatch: overriders in derived classes
                    for d in self._derived_of(short):
                        dhit = self.by_cls_name.get((d, cs.name))
                        if dhit:
                            add(dhit)
                            resolved = True
            if not resolved and cs.receiver in ("", "this") and fn.cls:
                short = fn.cls.rsplit("::", 1)[-1]
                hit = self.by_cls_name.get((short, cs.name))
                if hit:
                    add(hit)
                    resolved = True
            if not resolved and cs.name not in STD_NOISE:
                # Name-only fallback, denied for std-ish names (.at(),
                # .find(), ...) where receiver typing failed — a wrong
                # edge there would drag Engine::at into every vector.
                cands = self.by_name.get(cs.name, [])
                if 0 < len(cands) <= MAX_CANDIDATES:
                    add(cands)
        self._edges[id(fn)] = out
        return out

    def reachable(self, root: Function) -> list[Function]:
        """root plus everything transitively callable from it (DFS order,
        deterministic)."""
        seen: set[int] = set()
        order: list[Function] = []
        stack = [root]
        while stack:
            f = stack.pop()
            if id(f) in seen:
                continue
            seen.add(id(f))
            order.append(f)
            for c in reversed(self.callees(f)):
                if id(c) not in seen:
                    stack.append(c)
        return order


# -- rule 1: pointer-keyed containers ---------------------------------------

def rule_ptr_key(sm: SourceModel) -> list[Finding]:
    out = []
    for c in sm.containers:
        if not c.ptr_key:
            continue
        if sm.allowed("ptr-key", c.file, c.line):
            continue
        ordered = "unordered" not in c.template
        how = ("iteration order follows host pointer values"
               if ordered else
               "hashing host pointer values makes bucket order, rehash "
               "points and therefore iteration order address-dependent")
        out.append(Finding(
            rule="ptr-key", file=c.file, line=c.line,
            message=f"std::{c.template} '{c.name}' keyed on pointer type "
                    f"'{c.key_type}': {how}. Key on a stable id "
                    f"(slot index, rank, canonical u64) instead.",
        ))
    return out


# -- rule 2: unordered iteration leaking order ------------------------------

def _loop_leak(fn: Function, loop) -> str:
    if loop.writes_nonlocal:
        return ("writes non-local state "
                f"({', '.join(sorted(set(loop.writes_nonlocal))[:3])})")
    if loop.sink_calls:
        return f"calls mutating sink ({loop.sink_calls[0]})"
    if loop.has_break or loop.has_return:
        return "exits early (break/return), so the visit order picks "\
               "the result"
    leaked = sorted(loop.wrote_locals & fn.returned_idents)
    if leaked:
        return (f"writes local '{leaked[0]}' that flows into the return "
                "value")
    return ""


def rule_unordered_iter(sm: SourceModel) -> list[Finding]:
    out = []
    for fn in sm.functions:
        for loop in fn.loops:
            if not loop.unordered:
                continue
            leak = _loop_leak(fn, loop)
            if not leak:
                continue
            if sm.allowed("unordered-iter", fn.file, loop.line):
                continue
            out.append(Finding(
                rule="unordered-iter", file=fn.file, line=loop.line,
                message=f"{fn.qname}: iterates unordered container "
                        f"'{loop.iterable}' and {leak}; visit order is "
                        "host-hash-dependent. Iterate an ordered view or "
                        "make the body order-insensitive.",
            ))
    return out


# -- rule 3: hot-path allocation proof --------------------------------------

ALLOC_DESC = {
    "new": "operator new", "make_unique": "std::make_unique",
    "make_shared": "std::make_shared", "malloc": "malloc-family call",
    "std_function": "std::function construction",
}


def _alloc_desc(kind: str) -> str:
    if kind.startswith("growth:"):
        return f"container growth ({kind.split(':', 1)[1]})"
    return ALLOC_DESC.get(kind, kind)


def rule_hot_alloc(sm: SourceModel,
                   hot_roots: list[str] | None = None) -> list[Finding]:
    pats = [re.compile(p) for p in (hot_roots or DEFAULT_HOT_ROOTS)]
    cg = CallGraph(sm)
    roots = [f for f in sm.functions
             if any(p.search(f.qname) for p in pats)]
    out: list[Finding] = []
    flagged: set[str] = set()
    # BFS per root keeping the discovery chain for the report.
    for root in sorted(roots, key=lambda f: f.qname):
        chain: dict[int, str] = {id(root): root.qname}
        work = [root]
        seen = {id(root)}
        while work:
            f = work.pop(0)
            if "MNS_HOT" not in f.annotations:
                for a in f.allocs:
                    if sm.allowed("hot-alloc", f.file, a.line):
                        continue
                    key = f"{f.qname}:{a.line}"
                    if key in flagged:
                        continue
                    flagged.add(key)
                    out.append(Finding(
                        rule="hot-alloc", file=f.file, line=a.line,
                        message=f"{f.qname}: {_alloc_desc(a.kind)} "
                                f"({a.detail}) on a hot path. Pool it, "
                                "pre-reserve it, or annotate the audited "
                                "boundary MNS_HOT.",
                        chain=chain[id(f)]))
            for c in cg.callees(f):
                if id(c) not in seen:
                    seen.add(id(c))
                    chain[id(c)] = chain[id(f)] + " -> " + c.qname
                    work.append(c)
    return out


# -- rule 4: coroutine capture escape ---------------------------------------

# A coroutine lambda's captures live in the closure object, not in the
# coroutine frame: the frame only holds a pointer to the closure. So a
# capturing coroutine lambda, by value or by reference, is legal only where
# its frame provably finishes before the closure dies: awaited in place
# (`co_await [&]{...}()`), the first argument of the synchronous run()
# driver, or a named local whose every use is co_awaited. Every other
# usage escapes: the closure (and any locals it references) dies with the
# declaring scope or full-expression while the coroutine frame lives on.
# State a detached coroutine needs must be passed as parameters, which are
# copied into the frame.
SAME_FRAME_USAGES = {"awaited_in_place", "run_arg", "named_awaited"}


def _escape_reason(usage: str) -> str:
    kind, _, what = usage.partition(":")
    if kind == "returned":
        return "is returned from the enclosing function"
    if kind == "arg":
        return (f"is passed to {what}(), which may keep it past the frame"
                if what != "?" else "is passed as a call argument")
    if kind == "assigned":
        return f"is stored into '{what}'"
    if kind == "named":
        return f"is named '{what}' and used other than by co_await"
    if kind == "immediate_invoke":
        return "is invoked without co_await, so its frame outlives the "\
               "temporary lambda"
    return "is not provably awaited in the declaring frame"


def rule_coro_ref_escape(sm: SourceModel) -> list[Finding]:
    out = []
    for fn in sm.functions:
        for lam in fn.lambdas:
            if not (lam.captures and lam.is_coroutine) or \
                    lam.usage in SAME_FRAME_USAGES:
                continue
            if sm.allowed("coro-ref-escape", fn.file, lam.line):
                continue
            out.append(Finding(
                rule="coro-ref-escape", file=fn.file, line=lam.line,
                message=f"{fn.qname}: coroutine lambda captures "
                        f"[{lam.captures}] and "
                        f"{_escape_reason(lam.usage)}; captures live in the "
                        "closure, not the coroutine frame, so they dangle "
                        "at the first suspension point. Pass state as "
                        "coroutine parameters.",
            ))
    return out


# -- rule 5: shared-static audit (SweepRunner threads) ----------------------

def shared_static_audit(sm: SourceModel,
                        hot_roots: list[str] | None = None
                        ) -> tuple[list[Finding], list[dict]]:
    """Findings for mutable shared statics + the full state inventory
    (for simcheck_state.json), each entry with the event-handler roots
    that can reach it."""
    pats = [re.compile(p) for p in (hot_roots or DEFAULT_HOT_ROOTS)]
    cg = CallGraph(sm)
    roots = sorted((f for f in sm.functions
                    if any(p.search(f.qname) for p in pats)),
                   key=lambda f: f.qname)
    reach = {r.qname: cg.reachable(r) for r in roots}

    findings: list[Finding] = []
    inventory: list[dict] = []
    seen_keys: set[tuple] = set()
    for sv in sorted(sm.statics, key=lambda s: (s.file, s.line, s.qname)):
        key = (sv.file, sv.line, sv.qname)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        reached_by = []
        for rq, fns in sorted(reach.items()):
            for f in fns:
                hits = (f.qname == sv.owner_function or
                        sv.name in f.idents)
                if hits:
                    reached_by.append(rq)
                    break
        if sv.is_const:
            cls = "const-after-init"
            sev = "info"
        elif sv.kind == "thread_local":
            cls = "per-thread"
            sev = "info"
        else:
            cls = "mutable-shared"
            sev = "error"
        allowed = sm.allowed("shared-static", sv.file, sv.line)
        # Gating = the --jobs hazard is live: a mutable shared static an
        # event handler can actually reach, with no allow annotation.
        gating = (cls == "mutable-shared" and bool(reached_by)
                  and not allowed)
        inventory.append({
            "name": sv.qname, "file": sv.file, "line": sv.line,
            "kind": sv.kind, "type": sv.type_str, "class": cls,
            "reached_by": reached_by,
            "allowed": allowed,
            "gating": gating,
        })
        if allowed:
            continue
        if cls == "mutable-shared":
            if reached_by:
                findings.append(Finding(
                    rule="shared-static", file=sv.file, line=sv.line,
                    message=f"mutable {sv.kind.replace('_', ' ')} "
                            f"'{sv.qname}' is shared sim state reachable "
                            "from an event handler; simulations running "
                            "concurrently on SweepRunner (--jobs) threads "
                            "would race or diverge on it. Move it "
                            "into an engine-owned object, make it const "
                            "or thread_local, or annotate the line above "
                            "with 'simcheck-allow: shared-static' and a "
                            "justification.",
                    chain=", ".join(reached_by)))
            else:
                findings.append(Finding(
                    rule="shared-static", file=sv.file, line=sv.line,
                    severity="info",
                    message=f"mutable {sv.kind.replace('_', ' ')} "
                            f"'{sv.qname}' is shared state no event "
                            "handler currently reaches — inventory only, "
                            "but it becomes a gating --jobs hazard the "
                            "moment a handler path touches it.",
                    chain=""))
        elif cls == "per-thread":
            findings.append(Finding(
                rule="shared-static", file=sv.file, line=sv.line,
                severity="info",
                message=f"thread_local '{sv.qname}' is safe across "
                        "SweepRunner threads (each simulation runs on "
                        "one thread) but must stay per-engine if "
                        "engines ever share a thread.",
                chain=", ".join(reached_by)))
    return findings, inventory


# -- rule 6: per-line pattern bans ------------------------------------------

@dataclass(frozen=True)
class PatternRule:
    """One per-line ban over the stripped text. `only_dir` limits the rule
    to files under a directory of that name (relative to --root);
    `exempt_dir` skips such files."""
    name: str
    pattern: re.Pattern
    message: str
    only_dir: str = ""
    exempt_dir: str = ""

    def applies_to(self, rel: str) -> bool:
        dirs = rel.split("/")[:-1]
        if self.only_dir and self.only_dir not in dirs:
            return False
        return not (self.exempt_dir and self.exempt_dir in dirs)


PATTERN_RULES = [
    PatternRule(
        "wall-clock",
        re.compile(
            r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
            r"|(?<![\w.:>])(gettimeofday|clock_gettime|localtime|gmtime)\s*\("
            r"|(?<![\w.:>])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
        "wall-clock access in library code; simulated time comes from "
        "sim::Engine::now()"),
    PatternRule(
        "randomness",
        re.compile(r"std::random_device|(?<![\w.:>])s?rand\s*\("),
        "unseeded randomness; use the seeded generators in util/rng.hpp"),
    PatternRule(
        "threading",
        re.compile(
            r"std::(thread|jthread|async|launch|mutex|shared_mutex"
            r"|recursive_mutex|timed_mutex|scoped_lock|lock_guard"
            r"|unique_lock|shared_lock|condition_variable(_any)?"
            r"|atomic\w*|future|shared_future|packaged_task|barrier"
            r"|latch|counting_semaphore|binary_semaphore|stop_token"
            r"|this_thread)\b"
            r"|#\s*include\s*<(thread|atomic|mutex|shared_mutex|future"
            r"|condition_variable|barrier|latch|semaphore|stop_token)>"),
        "threading primitive in simulator code; a simulation is "
        "single-threaded by contract, and parallelism belongs between "
        "simulations (src/sweep/) only",
        exempt_dir="sweep"),
    PatternRule(
        "stdout",
        re.compile(r"std::(cout|cerr|clog)\b|(?<!\w)f?printf\s*\("
                   r"|(?<!\w)puts\s*\("),
        "stdout/stderr output in library code; return data and let "
        "bench/examples/tools print"),
    PatternRule(
        "fault-alloc",
        re.compile(
            r"std::(make_shared|make_unique|function)\b"
            r"|(?<![\w.:>])(malloc|calloc|realloc)\s*\("
            r"|(?<![\w:])new\s+[A-Za-z_:]"
            r"|std::(mt19937(_64)?|default_random_engine|minstd_rand0?"
            r"|uniform_(int|real)_distribution|bernoulli_distribution)\b"
            r"|#\s*include\s*<random>"),
        "heap allocation or non-portable RNG in src/fault; the injector's "
        "verdict paths run per packet and must stay allocation-free, "
        "drawing only from the pre-seeded util/rng.hpp streams, and "
        "<random> distributions differ between standard libraries",
        only_dir="fault"),
    PatternRule(
        "model-alloc",
        re.compile(r"std::(make_shared|function)\b"),
        "type-erased/shared allocation in src/model; the data path runs "
        "pooled state machines with raw EventFn continuations, so a "
        "per-message closure or control-path code needs an explicit "
        "simcheck-allow",
        only_dir="model"),
]


def rule_patterns(files: list[tuple[Path, str]]) -> list[Finding]:
    """Apply PATTERN_RULES to every (path, root-relative name) in files,
    line by line over the comment- and string-stripped text."""
    out = []
    for path, rel in files:
        active = [r for r in PATTERN_RULES if r.applies_to(rel)]
        text = path.read_text(encoding="utf-8", errors="replace")
        stripped, allows = strip_and_harvest(text)
        for line_no, line in enumerate(stripped.split("\n"), start=1):
            for r in active:
                if r.pattern.search(line) and \
                        r.name not in allows.get(line_no, ()):
                    out.append(Finding(rule=r.name, file=rel, line=line_no,
                                       message=r.message))
    return out


def run_all(sm: SourceModel, tree: list[tuple[Path, str]],
            hot_roots: list[str] | None = None
            ) -> tuple[list[Finding], list[dict]]:
    findings: list[Finding] = []
    findings += rule_ptr_key(sm)
    findings += rule_unordered_iter(sm)
    findings += rule_hot_alloc(sm, hot_roots)
    findings += rule_coro_ref_escape(sm)
    shared, inventory = shared_static_audit(sm, hot_roots)
    findings += shared
    findings += rule_patterns(tree)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings, inventory
