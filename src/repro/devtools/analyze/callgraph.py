"""Call-graph construction over the :class:`ProjectIndex`.

Resolution is deliberately *sound-where-it-claims* rather than complete:
a call edge is only added when the callee is identified through explicit
evidence — module-local names, import aliases (absolute and relative),
``self``/``cls`` method dispatch, class-annotated parameters and locals,
or ``ClassName(...)`` construction.  Anything else is kept as an
*external* canonical name (for source/sink classification) or a bare
*method-ish* attribute call (for filesystem-ordering heuristics), never
silently dropped.  All derived collections are sorted so downstream
reports are deterministic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.devtools.analyze.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
)
from repro.devtools.analyze.rules import dotted_parts


@dataclass(frozen=True)
class ResolvedCall:
    """A call whose callee is a project function/method."""

    callee: str
    node: ast.Call


@dataclass(frozen=True)
class ExternalCall:
    """A call resolved to a canonical dotted name outside the project."""

    canonical: str
    node: ast.Call


@dataclass(frozen=True)
class MethodishCall:
    """An attribute call whose receiver could not be typed (``x.glob()``)."""

    attr: str
    node: ast.Call


@dataclass
class FunctionFacts:
    """Everything the checkers need to know about one function."""

    qualname: str
    calls: list[ResolvedCall] = field(default_factory=list)
    external: list[ExternalCall] = field(default_factory=list)
    methodish: list[MethodishCall] = field(default_factory=list)
    attr_loads: set[str] = field(default_factory=set)


@dataclass
class CallGraph:
    """Project-wide resolved call edges plus per-function facts."""

    project: ProjectIndex
    facts: dict[str, FunctionFacts] = field(default_factory=dict)
    edges: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def build(cls, project: ProjectIndex) -> "CallGraph":
        graph = cls(project=project)
        for qualname in sorted(project.functions):
            function = project.functions[qualname]
            module = project.modules[function.module]
            graph.facts[qualname] = _function_facts(project, module, function)
        for qualname, facts in graph.facts.items():
            graph.edges[qualname] = tuple(
                sorted({call.callee for call in facts.calls})
            )
        return graph

    def reachable(self, roots: list[str]) -> dict[str, Optional[str]]:
        """BFS closure from ``roots``; value is the BFS parent (witness)."""
        parents: dict[str, Optional[str]] = {}
        queue: list[str] = []
        for root in sorted(roots):
            if root in self.facts and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for callee in self.edges.get(current, ()):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return parents

    def chain(self, parents: dict[str, Optional[str]], target: str) -> list[str]:
        """Root -> ... -> target along BFS parents (for finding messages)."""
        path = [target]
        while parents.get(path[-1]) is not None:
            parent = parents[path[-1]]
            if parent is None or parent in path:
                break
            path.append(parent)
        return list(reversed(path))

    def attr_loads_closure(self, roots: list[str]) -> set[str]:
        """Union of attribute reads over every function reachable from roots."""
        loads: set[str] = set()
        for qualname in self.reachable(roots):
            loads |= self.facts[qualname].attr_loads
        return loads


# --------------------------------------------------------------------------
# Per-function fact extraction
# --------------------------------------------------------------------------


def _function_facts(
    project: ProjectIndex, module: ModuleInfo, function: FunctionInfo
) -> FunctionFacts:
    facts = FunctionFacts(qualname=function.qualname)
    var_types = _parameter_types(project, module, function)
    var_types.update(_local_types(project, module, function))
    for node in ast.walk(function.node):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            facts.attr_loads.add(node.attr)
        if not isinstance(node, ast.Call):
            continue
        resolution = _resolve_call(project, module, function, node, var_types)
        kind, value = resolution
        if kind == "internal":
            facts.calls.append(ResolvedCall(callee=value, node=node))
        elif kind == "external":
            facts.external.append(ExternalCall(canonical=value, node=node))
        elif kind == "methodish":
            facts.methodish.append(MethodishCall(attr=value, node=node))
    return facts


def _classify_canonical(
    project: ProjectIndex, canonical: str, node: ast.Call
) -> tuple[str, str]:
    """A fully-resolved dotted name -> internal edge, constructor, or external."""
    canonical = project.resolve_export(canonical)
    if canonical in project.functions:
        return ("internal", canonical)
    if canonical in project.classes:
        constructor = project.resolve_method(canonical, "__init__")
        if constructor is not None:
            return ("internal", constructor)
        return ("external", canonical)
    return ("external", canonical)


def _resolve_call(
    project: ProjectIndex,
    module: ModuleInfo,
    function: FunctionInfo,
    node: ast.Call,
    var_types: dict[str, str],
) -> tuple[str, str]:
    """Resolve one call; never raises, never returns nothing."""
    callee = node.func
    if isinstance(callee, ast.Name):
        name = callee.id
        if name in module.functions:
            return ("internal", module.functions[name])
        if name in module.classes:
            return _classify_canonical(project, module.classes[name], node)
        if name in module.aliases:
            return _classify_canonical(project, module.aliases[name], node)
        return ("external", name)
    parts = dotted_parts(callee)
    if parts is None:
        # e.g. ``factory()()`` / subscripted callee; keep the terminal
        # attribute when there is one so heuristics still see it.
        if isinstance(callee, ast.Attribute):
            return ("methodish", callee.attr)
        return ("external", "")
    base, rest = parts[0], parts[1:]
    if base in ("self", "cls") and function.cls is not None and len(rest) == 1:
        method = project.resolve_method(function.cls, rest[0])
        if method is not None:
            return ("internal", method)
        return ("methodish", rest[0])
    if base in var_types and len(rest) == 1:
        method = project.resolve_method(var_types[base], rest[0])
        if method is not None:
            return ("internal", method)
        return ("methodish", rest[0])
    if base in module.classes:
        resolved_class = module.classes[base]
        if len(rest) == 1:
            method = project.resolve_method(resolved_class, rest[0])
            if method is not None:
                return ("internal", method)
        return ("external", ".".join([resolved_class, *rest]))
    if base in module.aliases:
        canonical = ".".join([module.aliases[base], *rest])
        kind, value = _classify_canonical(project, canonical, node)
        if kind == "internal":
            return (kind, value)
        # ``alias.ClassName.method`` — one more hop through project classes.
        if len(rest) >= 1:
            prefix = project.resolve_export(".".join([module.aliases[base], *rest[:-1]]))
            if prefix in project.classes:
                method = project.resolve_method(prefix, rest[-1])
                if method is not None:
                    return ("internal", method)
        return ("external", canonical)
    return ("methodish", rest[-1])


def _annotation_class(
    project: ProjectIndex, module: ModuleInfo, annotation: Optional[ast.expr]
) -> Optional[str]:
    """The project class an annotation names, unwrapping Optional/quoted."""
    if annotation is None:
        return None
    node: ast.expr = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):  # Optional[X] / Final[X]
        return _annotation_class(project, module, node.slice)
    if isinstance(node, ast.Name):
        candidate = module.classes.get(node.id) or module.aliases.get(node.id)
    elif isinstance(node, ast.Attribute):
        parts = dotted_parts(node)
        if parts is None:
            return None
        resolved_base = module.aliases.get(parts[0], parts[0])
        candidate = ".".join([resolved_base, *parts[1:]])
    else:
        return None
    if candidate is not None:
        candidate = project.resolve_export(candidate)
        if candidate in project.classes:
            return candidate
    return None


def _parameter_types(
    project: ProjectIndex, module: ModuleInfo, function: FunctionInfo
) -> dict[str, str]:
    types: dict[str, str] = {}
    args = function.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        resolved = _annotation_class(project, module, arg.annotation)
        if resolved is not None:
            types[arg.arg] = resolved
    if function.cls is not None:
        for receiver in ("self", "cls"):
            types.setdefault(receiver, function.cls)
    return types


def _local_types(
    project: ProjectIndex, module: ModuleInfo, function: FunctionInfo
) -> dict[str, str]:
    """``x = ClassName(...)`` / ``x: ClassName`` inside the body."""
    types: dict[str, str] = {}
    for node in ast.walk(function.node):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            resolved = _annotation_class(project, module, node.annotation)
            if resolved is not None:
                types[node.target.id] = resolved
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            constructed = _constructed_class(project, module, node.value)
            if constructed is not None:
                types[target.id] = constructed
    return types


def _constructed_class(
    project: ProjectIndex, module: ModuleInfo, node: ast.Call
) -> Optional[str]:
    callee = node.func
    candidate: Optional[str] = None
    if isinstance(callee, ast.Name):
        candidate = module.classes.get(callee.id) or module.aliases.get(callee.id)
    elif isinstance(callee, ast.Attribute):
        parts = dotted_parts(callee)
        if parts and parts[0] in module.aliases:
            candidate = ".".join([module.aliases[parts[0]], *parts[1:]])
    if candidate is not None:
        candidate = project.resolve_export(candidate)
        if candidate in project.classes:
            return candidate
    return None
