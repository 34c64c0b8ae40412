"""Checker 3 — registry closure for obs event kinds and counter names.

The per-module ``obs-event-kind`` checker proves each ``emit()`` literal
is registered; this checker closes the loop in *both* directions,
project-wide:

* every emitted event kind is in ``repro.obs.events.EVENT_KINDS`` **and**
  every registered kind has at least one emitter (a dead registry entry
  means a renamed emit site silently orphaned its schema docs);
* the same for counter names against ``repro.obs.metrics.COUNTER_NAMES``,
  where a registry entry may end in ``*`` to cover the sanctioned
  f-string counters (``campaign.cache_{layer}`` emits as
  ``campaign.cache_*``).

Registries are read from the AST of the registry module — never
imported — so fixture trees exercise the checker exactly like the real
tree.  A fixture tree without the registry module simply skips the
corresponding direction.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Optional

from repro.devtools.analyze.callgraph import CallGraph
from repro.devtools.analyze.findings import Finding
from repro.devtools.analyze.project import ProjectIndex

CHECKER_ID = "registry-closure"

EVENT_REGISTRY = ("repro.obs.events", "EVENT_KINDS")
COUNTER_REGISTRY = ("repro.obs.metrics", "COUNTER_NAMES")

#: Kinds written by the trace plumbing itself rather than an emit() call.
PLUMBING_EVENT_KINDS = frozenset({"trace.header"})

#: Canonical callables that record a counter.
_COUNT_CALLABLES = frozenset(
    {"repro.obs.count", "repro.obs.runtime.count"}
)


def _registry_entries(
    project: ProjectIndex, module: str, name: str
) -> Optional[dict[str, tuple[str, int]]]:
    """value -> (relpath, line) for a frozenset/set literal registry."""
    info = project.modules.get(module)
    if info is None:
        return None
    relpath = info.source.relpath
    for statement in info.source.tree.body:
        targets: list[ast.expr] = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value = statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets = [statement.target]
            value = statement.value
        else:
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == name for target in targets
        ):
            continue
        literal: Optional[ast.expr] = value
        if (
            isinstance(literal, ast.Call)
            and isinstance(literal.func, ast.Name)
            and literal.func.id == "frozenset"
            and literal.args
        ):
            literal = literal.args[0]
        if not isinstance(literal, (ast.Set, ast.List, ast.Tuple)):
            return {}
        entries: dict[str, tuple[str, int]] = {}
        for element in literal.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                entries[element.value] = (relpath, element.lineno)
        return entries
    return None


def _literal_or_pattern(node: ast.expr) -> Optional[str]:
    """A string literal, or an f-string collapsed to a ``*`` pattern."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for piece in node.values:
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                parts.append(piece.value)
            else:
                parts.append("*")
        return "".join(parts)
    return None


def _emit_uses(
    project: ProjectIndex, graph: CallGraph
) -> dict[str, list[tuple[str, int, int]]]:
    """kind -> [(relpath, line, col)] over every emit() literal in scope."""
    uses: dict[str, list[tuple[str, int, int]]] = {}
    for qualname in sorted(graph.facts):
        facts = graph.facts[qualname]
        relpath = project.function_relpath(qualname)
        for call in [*facts.external, *facts.methodish, *facts.calls]:
            terminal = (
                getattr(call, "canonical", None)
                or getattr(call, "callee", None)
                or getattr(call, "attr", "")
            ).rsplit(".", 1)[-1]
            if terminal != "emit" or not call.node.args:
                continue
            kind = _literal_or_pattern(call.node.args[0])
            if kind is None or "*" in kind:
                continue  # dynamic kinds are obs-event-kind's problem
            uses.setdefault(kind, []).append(
                (relpath, call.node.lineno, call.node.col_offset)
            )
    return uses


def _count_uses(
    project: ProjectIndex, graph: CallGraph
) -> dict[str, list[tuple[str, int, int]]]:
    """counter name/pattern -> [(relpath, line, col)] for obs count calls."""
    uses: dict[str, list[tuple[str, int, int]]] = {}
    for qualname in sorted(graph.facts):
        facts = graph.facts[qualname]
        relpath = project.function_relpath(qualname)
        for call in [*facts.external, *facts.calls]:
            target = getattr(call, "canonical", None) or getattr(call, "callee", "")
            if target not in _COUNT_CALLABLES or not call.node.args:
                continue
            name = _literal_or_pattern(call.node.args[0])
            if name is None:
                continue
            uses.setdefault(name, []).append(
                (relpath, call.node.lineno, call.node.col_offset)
            )
    return uses


def _closure_findings(
    uses: dict[str, list[tuple[str, int, int]]],
    registry: dict[str, tuple[str, int]],
    *,
    label: str,
    registry_name: str,
    plumbing: frozenset[str],
) -> list[Finding]:
    findings: list[Finding] = []
    registered = sorted(registry)
    matched: set[str] = set()
    for used in sorted(uses):
        hit: Optional[str] = None
        if used in registry:
            hit = used
        elif "*" in used:
            # A dynamic use only matches an identical registered pattern:
            # the registry must *opt in* to each dynamic family.
            hit = used if used in registry else None
        else:
            for entry in registered:
                if "*" in entry and fnmatch.fnmatchcase(used, entry):
                    hit = entry
                    break
        if hit is not None:
            matched.add(hit)
            continue
        for relpath, line, col in sorted(uses[used]):
            findings.append(
                Finding(
                    checker=CHECKER_ID,
                    path=relpath,
                    line=line,
                    col=col,
                    message=(
                        f"{label} {used!r} is not registered in "
                        f"{registry_name}; register it (or fix the name)"
                    ),
                )
            )
    for entry in registered:
        if entry in matched or entry in plumbing:
            continue
        relpath, line = registry[entry]
        findings.append(
            Finding(
                checker=CHECKER_ID,
                path=relpath,
                line=line,
                col=0,
                message=(
                    f"{label} {entry!r} is registered in {registry_name} but "
                    "never emitted anywhere in the tree; delete the dead "
                    "entry or restore its emitter"
                ),
            )
        )
    return findings


def check_registries(
    project: ProjectIndex,
    graph: CallGraph,
    plumbing_kinds: frozenset[str] = PLUMBING_EVENT_KINDS,
) -> list[Finding]:
    findings: list[Finding] = []
    event_registry = _registry_entries(project, *EVENT_REGISTRY)
    if event_registry is not None:
        findings.extend(
            _closure_findings(
                _emit_uses(project, graph),
                event_registry,
                label="event kind",
                registry_name=f"{EVENT_REGISTRY[0]}.{EVENT_REGISTRY[1]}",
                plumbing=plumbing_kinds,
            )
        )
    counter_registry = _registry_entries(project, *COUNTER_REGISTRY)
    if counter_registry is not None:
        findings.extend(
            _closure_findings(
                _count_uses(project, graph),
                counter_registry,
                label="counter name",
                registry_name=f"{COUNTER_REGISTRY[0]}.{COUNTER_REGISTRY[1]}",
                plumbing=frozenset(),
            )
        )
    return findings
