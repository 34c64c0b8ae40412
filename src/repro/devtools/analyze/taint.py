"""Checker 1 — determinism taint.

Three source families poison determinism: wall-clock reads, unseeded
global RNG, and filesystem-enumeration order.  The per-module checkers
flag *direct* use; this checker follows the value through function and
method calls.  Each project function gets a *purity summary* — the set
of taint kinds its result may carry, computed as a fixed point over the
call graph — and each function body gets a local dataflow pass over its
assignments.  A finding fires when a tainted expression appears in an
argument of a *sink* call: trace emission, cache-key construction, or
decision-plan solving.

``sorted(...)`` neutralises the filesystem-ordering kind (that is the
sanctioned fix), but no wrapper launders wall-clock or RNG taint.
Modules under the structural exemption globs (the two sanctioned timing
modules, the obs plumbing) neither contribute sources nor get scanned
for sinks — they are the code whose *job* is handling wall time.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.devtools.analyze.callgraph import CallGraph, FunctionFacts
from repro.devtools.analyze.findings import Finding, glob_match
from repro.devtools.analyze.project import ProjectIndex
from repro.devtools.analyze.rules import ALLOWED_RANDOM_CALLS, WALL_CLOCK_CALLS

CHECKER_ID = "determinism-taint"

#: Modules allowed to traffic in wall time / filesystem order by design.
DEFAULT_TAINT_EXEMPT: tuple[str, ...] = (
    "src/repro/obs/**",
    "src/repro/sim/executor.py",
)

_FS_ORDER_CALLS = frozenset(
    {"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"}
)
_FS_ORDER_METHODS = frozenset({"glob", "rglob", "iterdir"})

#: Sink terminals per category; matched against the last dotted segment.
_KEY_SINKS = frozenset(
    {"cache_token", "cache_key_hash", "request_key_hash", "CampaignSpec", "token"}
)
_SOLVER_SINKS = frozenset(
    {"solve_schedule", "solve_schedule_greedy", "solve_schedule_pairs", "plan_or_fallback"}
)

_KIND_LABELS = {
    "wall-clock": "wall-clock",
    "unseeded-rng": "unseeded-RNG",
    "fs-order": "filesystem-ordering",
}

_SINK_LABELS = {
    "emit": "trace emission",
    "key": "cache-key construction",
    "solve": "decision-plan solving",
}


@dataclass(frozen=True)
class _Taint:
    """One taint fact: the kind plus a human-readable origin."""

    kind: str
    origin: str


def _source_kind(canonical: str) -> Optional[str]:
    if canonical in WALL_CLOCK_CALLS:
        return "wall-clock"
    if canonical in _FS_ORDER_CALLS:
        return "fs-order"
    if canonical in ALLOWED_RANDOM_CALLS:
        return None
    if canonical.startswith("random.") or canonical.startswith("numpy.random."):
        return "unseeded-rng"
    return None


def _short(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


def _sink_category(terminal: str) -> Optional[str]:
    if terminal == "emit":
        return "emit"
    if terminal in _KEY_SINKS:
        return "key"
    if terminal in _SOLVER_SINKS:
        return "solve"
    return None


def _is_exempt(relpath: str, exempt: tuple[str, ...]) -> bool:
    return any(glob_match(relpath, pattern) for pattern in exempt)


# --------------------------------------------------------------------------
# Purity summaries (interprocedural fixed point)
# --------------------------------------------------------------------------


def _direct_kinds(facts: FunctionFacts, protected: set[int]) -> set[str]:
    kinds: set[str] = set()
    for call in facts.external:
        kind = _source_kind(call.canonical)
        if kind == "fs-order" and id(call.node) in protected:
            continue
        if kind is not None:
            kinds.add(kind)
    for call in facts.methodish:
        if call.attr in _FS_ORDER_METHODS and id(call.node) not in protected:
            kinds.add("fs-order")
    return kinds


def _sorted_protected(node: ast.AST) -> set[int]:
    """ids of every node nested inside a ``sorted(...)`` call."""
    protected: set[int] = set()
    for candidate in ast.walk(node):
        if (
            isinstance(candidate, ast.Call)
            and isinstance(candidate.func, ast.Name)
            and candidate.func.id == "sorted"
        ):
            for inner in ast.walk(candidate):
                protected.add(id(inner))
    return protected


def _summaries(
    project: ProjectIndex, graph: CallGraph, exempt: tuple[str, ...]
) -> tuple[dict[str, set[str]], dict[str, str]]:
    """(taint kinds per function, witness chain per tainted function)."""
    protected: dict[str, set[int]] = {}
    kinds: dict[str, set[str]] = {}
    trusted: set[str] = set()
    for qualname in sorted(graph.facts):
        relpath = project.function_relpath(qualname)
        facts = graph.facts[qualname]
        protected[qualname] = _sorted_protected(project.functions[qualname].node)
        if _is_exempt(relpath, exempt):
            trusted.add(qualname)
            kinds[qualname] = set()
        else:
            kinds[qualname] = _direct_kinds(facts, protected[qualname])
    direct = {qualname: set(found) for qualname, found in kinds.items()}
    changed = True
    while changed:
        changed = False
        for qualname in sorted(graph.facts):
            if qualname in trusted:
                continue
            merged = set(kinds[qualname])
            for callee in graph.edges.get(qualname, ()):
                merged |= kinds.get(callee, set())
            if merged != kinds[qualname]:
                kinds[qualname] = merged
                changed = True
    witnesses: dict[str, str] = {}
    for qualname in sorted(graph.facts):
        if direct[qualname]:
            facts = graph.facts[qualname]
            origins = sorted(
                {
                    call.canonical
                    for call in facts.external
                    if _source_kind(call.canonical) is not None
                }
                | {
                    f"<receiver>.{call.attr}"
                    for call in facts.methodish
                    if call.attr in _FS_ORDER_METHODS
                    and id(call.node) not in protected[qualname]
                }
            )
            witnesses[qualname] = f"{_short(qualname)}() -> {origins[0]}()"
    changed = True
    while changed:
        changed = False
        for qualname in sorted(graph.facts):
            if qualname in witnesses or not kinds[qualname]:
                continue
            tainted_callees = sorted(
                callee
                for callee in graph.edges.get(qualname, ())
                if callee in witnesses
            )
            if tainted_callees:
                witnesses[qualname] = (
                    f"{_short(qualname)}() -> {witnesses[tainted_callees[0]]}"
                )
                changed = True
    return kinds, witnesses


# --------------------------------------------------------------------------
# Intraprocedural dataflow + sink scan
# --------------------------------------------------------------------------


def _expr_taints(
    expr: ast.expr,
    resolution: dict[int, tuple[str, str]],
    summaries: dict[str, set[str]],
    witnesses: dict[str, str],
    tainted_locals: dict[str, frozenset[_Taint]],
    protected: set[int],
) -> set[_Taint]:
    taints: set[_Taint] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            taints |= tainted_locals.get(node.id, frozenset())
        if not isinstance(node, ast.Call):
            continue
        resolved = resolution.get(id(node))
        if resolved is None:
            continue
        kind, value = resolved
        if kind == "external":
            source = _source_kind(value)
            if source == "fs-order" and id(node) in protected:
                continue
            if source is not None:
                taints.add(_Taint(kind=source, origin=f"{value}()"))
        elif kind == "methodish":
            if value in _FS_ORDER_METHODS and id(node) not in protected:
                taints.add(_Taint(kind="fs-order", origin=f"<receiver>.{value}()"))
        elif kind == "internal":
            for taint_kind in sorted(summaries.get(value, set())):
                witness = witnesses.get(value, f"{_short(value)}()")
                taints.add(_Taint(kind=taint_kind, origin=witness))
    return taints


def _assignment_pairs(
    node: ast.AST,
) -> list[tuple[list[str], ast.expr]]:
    """(target names, value expr) for every binding statement in a body."""
    pairs: list[tuple[list[str], ast.expr]] = []
    for statement in ast.walk(node):
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AugAssign):
            targets, value = [statement.target], statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        elif isinstance(statement, ast.NamedExpr):
            targets, value = [statement.target], statement.value
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            targets, value = [statement.target], statement.iter
        if value is None:
            continue
        names: list[str] = []
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.append(sub.id)
        if names:
            pairs.append((names, value))
    return pairs


def check_taint(
    project: ProjectIndex,
    graph: CallGraph,
    exempt: tuple[str, ...] = DEFAULT_TAINT_EXEMPT,
) -> list[Finding]:
    summaries, witnesses = _summaries(project, graph, exempt)
    findings: list[Finding] = []
    for qualname in sorted(graph.facts):
        relpath = project.function_relpath(qualname)
        if _is_exempt(relpath, exempt):
            continue
        facts = graph.facts[qualname]
        function_node = project.functions[qualname].node
        protected = _sorted_protected(function_node)
        resolution: dict[int, tuple[str, str]] = {}
        for call in facts.calls:
            resolution[id(call.node)] = ("internal", call.callee)
        for external in facts.external:
            resolution[id(external.node)] = ("external", external.canonical)
        for methodish in facts.methodish:
            resolution[id(methodish.node)] = ("methodish", methodish.attr)

        tainted_locals: dict[str, frozenset[_Taint]] = {}
        pairs = _assignment_pairs(function_node)
        for _ in range(len(pairs) + 1):
            changed = False
            for names, value in pairs:
                taints = _expr_taints(
                    value, resolution, summaries, witnesses, tainted_locals, protected
                )
                for name in names:
                    merged = tainted_locals.get(name, frozenset()) | taints
                    if merged != tainted_locals.get(name, frozenset()):
                        tainted_locals[name] = merged
                        changed = True
            if not changed:
                break

        for call in [*facts.calls, *facts.external, *facts.methodish]:
            callee = getattr(call, "callee", None) or getattr(
                call, "canonical", None
            ) or getattr(call, "attr", "")
            category = _sink_category(_short(callee))
            if category is None:
                continue
            arguments = [
                *call.node.args,
                *(kw.value for kw in call.node.keywords),
            ]
            sink_taints: set[_Taint] = set()
            for argument in arguments:
                sink_taints |= _expr_taints(
                    argument,
                    resolution,
                    summaries,
                    witnesses,
                    tainted_locals,
                    protected,
                )
            for taint in sorted(sink_taints, key=lambda t: (t.kind, t.origin)):
                findings.append(
                    Finding(
                        checker=CHECKER_ID,
                        path=relpath,
                        line=call.node.lineno,
                        col=call.node.col_offset,
                        message=(
                            f"{_KIND_LABELS[taint.kind]} value reaches "
                            f"{_SINK_LABELS[category]} ({_short(callee)}): "
                            f"derived from {taint.origin}"
                        ),
                    )
                )
    return findings
