"""Checker 4 — process-boundary safety.

The executor's serial == parallel guarantee and the service's coalescing
contract both assume worker-path code keeps no hidden process-local
state: a module-level dict written inside a ``ProcessPoolExecutor``
worker diverges silently between the serial and sharded runs, and a
write on the coalescing path makes "one evaluation, many waiters"
unsound.  This checker walks the call graph from the declared worker
entry points and flags every write to a mutable module-level binding
reachable from them — same-module globals, aliased cross-module names
(``runner._CACHE[k] = v``) and mutating method calls alike.

Deliberate caches on the worker path (the campaign memo the executor
primes *before* forking) carry justified line suppressions; everything
else is an error.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.devtools.analyze.callgraph import CallGraph
from repro.devtools.analyze.findings import Finding
from repro.devtools.analyze.project import ModuleInfo, ProjectIndex
from repro.devtools.analyze.rules import dotted_parts

CHECKER_ID = "process-boundary"

#: Call-graph roots: the process-pool worker entry and the service
#: coalescing evaluation (documented pure; settle() peeks at its result).
DEFAULT_WORKER_ROOTS: tuple[str, ...] = (
    "repro.sim.executor._compute_spec",
    "repro.service.engine.PaceDecisionService._evaluation_outcome",
)

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)


def _local_store_names(node: ast.AST) -> set[str]:
    """Names bound inside the function (they shadow module globals)."""
    names: set[str] = set()
    globals_declared: set[str] = set()
    for statement in ast.walk(node):
        if isinstance(statement, (ast.Global, ast.Nonlocal)):
            globals_declared.update(statement.names)
        elif isinstance(statement, ast.Name) and isinstance(
            statement.ctx, (ast.Store, ast.Del)
        ):
            names.add(statement.id)
    return names - globals_declared


def _resolve_state_name(
    project: ProjectIndex,
    module: ModuleInfo,
    node: ast.expr,
    shadowed: set[str],
) -> Optional[tuple[str, str, int]]:
    """``node`` as (owning module, binding name, def line) if it names
    module-level mutable state — directly, via a from-import alias, or as
    a ``mod.NAME`` attribute through a module alias."""
    if isinstance(node, ast.Name):
        if node.id in shadowed:
            return None
        if node.id in module.mutables:
            return (module.name, node.id, module.mutables[node.id])
        canonical = module.aliases.get(node.id)
        if canonical is not None:
            return _canonical_state(project, canonical)
        return None
    if isinstance(node, ast.Attribute):
        parts = dotted_parts(node)
        if parts is None or len(parts) != 2:
            return None
        owner = module.aliases.get(parts[0])
        if owner is None:
            return None
        return _canonical_state(project, f"{owner}.{parts[1]}")
    return None


def _canonical_state(
    project: ProjectIndex, canonical: str
) -> Optional[tuple[str, str, int]]:
    owner, _, name = canonical.rpartition(".")
    info = project.modules.get(owner)
    if info is not None and name in info.mutables:
        return (owner, name, info.mutables[name])
    return None


def _function_state_writes(
    project: ProjectIndex, module: ModuleInfo, node: ast.AST
) -> list[tuple[int, int, str, str]]:
    """(line, col, owner module, name) for each module-state write."""
    shadowed = _local_store_names(node)
    writes: list[tuple[int, int, str, str]] = []

    def record(target: ast.expr, at: ast.AST) -> None:
        resolved = _resolve_state_name(project, module, target, shadowed)
        if resolved is not None:
            owner, name, _line = resolved
            writes.append(
                (at.lineno, getattr(at, "col_offset", 0), owner, name)
            )

    for statement in ast.walk(node):
        if isinstance(statement, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                statement.targets
                if isinstance(statement, ast.Assign)
                else [statement.target]
            )
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    record(target.value, statement)
                elif isinstance(target, ast.Name):
                    # Rebinding a module-level mutable requires ``global``;
                    # shadowed names were subtracted already.
                    if target.id not in shadowed:
                        record(target, statement)
        elif isinstance(statement, ast.Delete):
            for target in statement.targets:
                if isinstance(target, ast.Subscript):
                    record(target.value, statement)
        elif isinstance(statement, ast.Call):
            callee = statement.func
            if isinstance(callee, ast.Attribute) and callee.attr in _MUTATORS:
                record(callee.value, statement)
    return writes


def check_boundaries(
    project: ProjectIndex,
    graph: CallGraph,
    roots: tuple[str, ...] = DEFAULT_WORKER_ROOTS,
) -> list[Finding]:
    present_roots = [root for root in roots if root in graph.facts]
    if not present_roots:
        return []
    parents = graph.reachable(present_roots)
    findings: list[Finding] = []
    for qualname in sorted(parents):
        function = project.functions[qualname]
        module = project.modules[function.module]
        for line, col, owner, name in _function_state_writes(
            project, module, function.node
        ):
            chain = " -> ".join(graph.chain(parents, qualname))
            owner_info = project.modules.get(owner)
            defined_at = (
                f"{owner_info.source.relpath}:{owner_info.mutables[name]}"
                if owner_info is not None and name in owner_info.mutables
                else owner
            )
            findings.append(
                Finding(
                    checker=CHECKER_ID,
                    path=module.source.relpath,
                    line=line,
                    col=col,
                    message=(
                        f"mutable module-level state {owner}.{name} (defined "
                        f"at {defined_at}) is written on a worker/service "
                        f"path: {chain}"
                    ),
                )
            )
    return findings
