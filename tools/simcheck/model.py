"""The IR the parser produces and the structural rules consume.

The IR is deliberately modest: enough structure for the rules, nothing
more. Where the parser cannot prove a fact it leaves the field at its
"unknown" default — rules only fire on positive evidence, so imprecision
under-reports rather than inventing findings. (The coroutine rule is the
exception by design: a lambda whose usage is unknown counts as escaping.)"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CallSite:
    name: str                    # unqualified callee name ('reserve')
    line: int
    qualifier: str = ""          # 'Pipe' for Pipe::reserve, '' if unknown
    receiver: str = ""           # receiver expression chain ('f.msg')


@dataclass
class AllocSite:
    kind: str                    # new | make_unique | make_shared | malloc
    #                            | std_function | growth:<method>
    line: int
    detail: str = ""


@dataclass
class LoopSite:
    line: int
    iterable: str                # source text of the iterated expression
    iterable_type: str = ""      # resolved type spelling ('' = unknown)
    unordered: bool = False
    writes_nonlocal: list[str] = field(default_factory=list)
    sink_calls: list[str] = field(default_factory=list)
    has_break: bool = False
    has_return: bool = False
    wrote_locals: set[str] = field(default_factory=set)


@dataclass
class LambdaSite:
    line: int
    captures: str                # raw capture list text ('&', 'this, &x')
    is_coroutine: bool = False   # co_await/co_return/co_yield in OWN body
    # How the lambda leaves the introducer expression:
    #   awaited_in_place | immediate_invoke | run_arg | named_awaited |
    #   named:<ident> | arg:<callee> | returned | assigned:<target> |
    #   unknown
    usage: str = "unknown"


@dataclass
class StaticVar:
    name: str
    qname: str                   # namespace-qualified where known
    file: str
    line: int
    kind: str                    # namespace | local_static | thread_local
    #                            | static_member
    type_str: str = ""
    is_const: bool = False       # const or constexpr (immutable after init)
    owner_function: str = ""     # qname of enclosing function for locals


@dataclass
class ContainerDecl:
    name: str
    file: str
    line: int
    type_str: str
    template: str                # 'map', 'set', 'unordered_map', ...
    key_type: str
    ptr_key: bool = False
    owner: str = ""              # enclosing class/function qname


@dataclass
class Function:
    qname: str                   # 'mns::model::NetFabric::flow_step'
    name: str                    # 'flow_step'
    cls: str = ""                # enclosing class qname ('' = free)
    file: str = ""
    line: int = 0
    is_coroutine: bool = False
    annotations: set[str] = field(default_factory=set)   # {'MNS_HOT'}
    calls: list[CallSite] = field(default_factory=list)
    allocs: list[AllocSite] = field(default_factory=list)
    loops: list[LoopSite] = field(default_factory=list)
    lambdas: list[LambdaSite] = field(default_factory=list)
    static_locals: list[StaticVar] = field(default_factory=list)
    idents: set[str] = field(default_factory=set)        # every identifier
    returned_idents: set[str] = field(default_factory=set)


@dataclass
class ClassInfo:
    qname: str
    bases: list[str] = field(default_factory=list)       # base class names
    member_types: dict[str, str] = field(default_factory=dict)


@dataclass
class SourceModel:
    """Everything the parser extracted from one run."""
    functions: list[Function] = field(default_factory=list)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    statics: list[StaticVar] = field(default_factory=list)
    containers: list[ContainerDecl] = field(default_factory=list)
    # file -> line -> suppressed rule names
    allows: dict[str, dict[int, set[str]]] = field(default_factory=dict)
    files: list[str] = field(default_factory=list)

    def allowed(self, rule: str, file: str, line: int) -> bool:
        return rule in self.allows.get(file, {}).get(line, set())


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str
    severity: str = "error"      # error | info (info never affects exit)
    chain: str = ""              # hot-alloc call chain, for the report
