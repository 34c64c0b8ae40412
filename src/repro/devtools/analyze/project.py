"""The project index: every module under analysis, parsed once.

Where the lint engine sees one file at a time, the analyzer needs the
whole program: module names derived from paths, every function and class
with a stable dotted qualname, dataclass fields (with their
``# key_exempt`` markers), import aliases resolved through the shared
lint resolver (absolute *and* relative), and module-level mutable
bindings.  Everything is plain ``ast`` — no imports of the analyzed code
ever happen, so fixture trees in tests and the real tree go through the
exact same path.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Optional, Union

from repro._lazy import declared_exports
from repro.devtools.lint.engine import SourceFile
from repro.devtools.lint.rules import import_aliases, module_package

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Constructors whose result is mutable module-level state when bound at
#: module scope.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "deque", "Counter"}
)

#: ``# key_exempt: <why>`` (or ``-- <why>``) on a dataclass field line.
_KEY_EXEMPT_RE = re.compile(
    r"#\s*key_exempt\b(?:\s*(?::|--)\s*(?P<why>.*\S))?"
)


def module_name(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/sim/runner.py`` -> ``repro.sim.runner``;
    ``src/repro/obs/__init__.py`` -> ``repro.obs``.
    """
    parts = list(pathlib.PurePosixPath(relpath).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[: -len(".py")]
    if stem == "__init__":
        parts = parts[:-1]
    else:
        parts = [*parts[:-1], stem]
    return ".".join(parts)


@dataclass(frozen=True)
class FieldInfo:
    """One dataclass field, with its optional key-exemption marker."""

    name: str
    line: int
    has_marker: bool
    exempt_reason: Optional[str]


@dataclass
class FunctionInfo:
    """One function or method, addressable by dotted qualname."""

    qualname: str  # e.g. repro.sim.runner.run_campaign / ...CampaignSpec.key
    module: str
    cls: Optional[str]  # owning class qualname for methods
    node: FunctionNode


@dataclass
class ClassInfo:
    """One class: bases (resolved where possible), methods, dataclass fields."""

    qualname: str
    module: str
    node: ast.ClassDef
    bases: tuple[str, ...]
    is_dataclass: bool
    fields: tuple[FieldInfo, ...]
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname


@dataclass
class ModuleInfo:
    """One parsed module with its local symbol tables."""

    name: str
    package: str
    source: SourceFile
    aliases: dict[str, str]
    #: A package's declared re-exports (its ``if TYPE_CHECKING:`` imports).
    exports: dict[str, str] = field(default_factory=dict)  # name -> origin
    functions: dict[str, str] = field(default_factory=dict)  # local name -> qualname
    classes: dict[str, str] = field(default_factory=dict)  # local name -> qualname
    mutables: dict[str, int] = field(default_factory=dict)  # name -> def line


@dataclass
class ProjectIndex:
    """The whole analyzed tree, addressable by dotted names."""

    root: pathlib.Path
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    parse_failures: list[tuple[str, int, int, str]] = field(default_factory=list)

    @classmethod
    def load(
        cls, paths: Sequence[pathlib.Path], root: pathlib.Path
    ) -> "ProjectIndex":
        project = cls(root=root)
        for path in _iter_python_files(paths):
            try:
                source = SourceFile.load(path, root)
            except SyntaxError as error:
                relpath = path.resolve().relative_to(root.resolve()).as_posix()
                project.parse_failures.append(
                    (relpath, error.lineno or 0, error.offset or 0, error.msg or "")
                )
                continue
            project._index_module(source)
        return project

    # -- indexing ----------------------------------------------------------

    def _index_module(self, source: SourceFile) -> None:
        name = module_name(source.relpath)
        package = module_package(source.relpath)
        info = ModuleInfo(
            name=name,
            package=package,
            source=source,
            aliases=import_aliases(source.tree, package),
        )
        if source.relpath.endswith("__init__.py"):
            info.exports = {
                name: f"{origin}.{attr}"
                for name, (origin, attr) in declared_exports(source.tree).items()
            }
        exemptions = _key_exempt_comments(source.text)
        for statement in source.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(info, statement, cls=None)
            elif isinstance(statement, ast.ClassDef):
                self._index_class(info, statement, exemptions)
            else:
                _collect_mutables(info, statement)
        self.modules[name] = info

    def _index_function(
        self, module: ModuleInfo, node: FunctionNode, cls: Optional[str]
    ) -> None:
        owner = cls if cls is not None else module.name
        qualname = f"{owner}.{node.name}"
        function = FunctionInfo(
            qualname=qualname, module=module.name, cls=cls, node=node
        )
        self.functions[qualname] = function
        if cls is None:
            module.functions[node.name] = qualname
        else:
            self.classes[cls].methods[node.name] = qualname

    def _index_class(
        self,
        module: ModuleInfo,
        node: ast.ClassDef,
        exemptions: dict[int, Optional[str]],
    ) -> None:
        qualname = f"{module.name}.{node.name}"
        bases = tuple(
            resolved
            for resolved in (
                _resolve_base(base, module.aliases, module.name)
                for base in node.bases
            )
            if resolved is not None
        )
        is_dataclass = any(_is_dataclass_decorator(d) for d in node.decorator_list)
        fields = _dataclass_fields(node, exemptions) if is_dataclass else ()
        self.classes[qualname] = ClassInfo(
            qualname=qualname,
            module=module.name,
            node=node,
            bases=bases,
            is_dataclass=is_dataclass,
            fields=fields,
        )
        module.classes[node.name] = qualname
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(module, statement, cls=qualname)

    # -- lookups -----------------------------------------------------------

    def resolve_method(self, class_qualname: str, method: str) -> Optional[str]:
        """``method`` on ``class_qualname`` or its project bases (MRO-ish)."""
        seen: set[str] = set()
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            queue.extend(self.resolve_export(base) for base in info.bases)
        return None

    def resolve_export(self, name: str) -> str:
        """Follow package re-exports to the defining name.

        ``repro.sim.run_campaign`` -> ``repro.sim.runner.run_campaign``
        when ``repro/sim/__init__.py`` declares that import; any other
        name comes back unchanged.
        """
        seen: set[str] = set()
        while name not in self.functions and name not in self.classes and name not in seen:
            seen.add(name)
            package, _, attr = name.rpartition(".")
            module = self.modules.get(package)
            if module is None or attr not in module.exports:
                break
            name = module.exports[attr]
        return name

    def function_relpath(self, qualname: str) -> str:
        function = self.functions[qualname]
        return self.modules[function.module].source.relpath


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _iter_python_files(paths: Sequence[pathlib.Path]) -> list[pathlib.Path]:
    seen: set[pathlib.Path] = set()
    ordered: list[pathlib.Path] = []
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen or "__pycache__" in resolved.parts:
                continue
            seen.add(resolved)
            ordered.append(candidate)
    return ordered


def _key_exempt_comments(text: str) -> dict[int, Optional[str]]:
    """Line -> justification (None when the marker has no reason)."""
    found: dict[int, Optional[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except tokenize.TokenizeError:  # the ast parse already succeeded
        return found
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _KEY_EXEMPT_RE.search(token.string)
        if match is not None:
            found[token.start[0]] = match.group("why")
    return found


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id == "dataclass"
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return False


def _annotation_text(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return ""


def _dataclass_fields(
    node: ast.ClassDef, exemptions: dict[int, Optional[str]]
) -> tuple[FieldInfo, ...]:
    fields: list[FieldInfo] = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        if "ClassVar" in _annotation_text(statement.annotation):
            continue
        line = statement.lineno
        has_marker = line in exemptions
        fields.append(
            FieldInfo(
                name=statement.target.id,
                line=line,
                has_marker=has_marker,
                exempt_reason=exemptions.get(line),
            )
        )
    return tuple(fields)


def _resolve_base(
    node: ast.expr, aliases: dict[str, str], module: str
) -> Optional[str]:
    if isinstance(node, ast.Name):
        if node.id in aliases:
            return aliases[node.id]
        return f"{module}.{node.id}"
    if isinstance(node, ast.Attribute):
        parts: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = aliases.get(current.id, current.id)
        return ".".join([base, *reversed(parts)])
    return None


def _collect_mutables(module: ModuleInfo, statement: ast.stmt) -> None:
    """Record module-level names bound to mutable containers."""
    targets: list[ast.expr] = []
    value: Optional[ast.expr] = None
    if isinstance(statement, ast.Assign):
        targets = statement.targets
        value = statement.value
    elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
        targets = [statement.target]
        value = statement.value
    if value is None:
        return
    if not _is_mutable_value(value):
        return
    for target in targets:
        if isinstance(target, ast.Name):
            module.mutables[target.id] = statement.lineno


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = node.func
        if isinstance(callee, ast.Name):
            return callee.id in _MUTABLE_CONSTRUCTORS
        if isinstance(callee, ast.Attribute):
            return callee.attr in _MUTABLE_CONSTRUCTORS
    return False
