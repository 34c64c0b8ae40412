"""Lazy package re-exports (PEP 562), declared once per package.

Every package ``__init__`` under :mod:`repro` declares its public names
as ordinary absolute imports inside one ``if TYPE_CHECKING:`` block (what
mypy and ``repro analyze`` read), lists them in ``__all__``, and ends
with::

    __getattr__, __dir__ = lazy_exports(__name__)

:func:`lazy_exports` reads that block from the package's own source, so
the declared imports *are* the runtime table and the two cannot drift.
A name's defining module is imported on first access and the value is
stored in the package namespace, so later lookups are plain attribute
reads; the block itself is read on the first lookup, not at import.
Importing a package therefore loads none of its submodules, and a run
compiles only the layers it actually uses.
"""

from __future__ import annotations

import ast
import functools
import importlib
import sys
from collections.abc import Callable


def declared_exports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """``{name: (module, attribute)}`` declared by a module's ``if TYPE_CHECKING:`` block.

    Only top-level blocks and absolute ``from module import name [as
    alias]`` statements count; ``repro analyze`` resolves calls through
    packages with the same table.
    """
    exports: dict[str, tuple[str, str]] = {}
    for node in tree.body:
        if not (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            continue
        for statement in node.body:
            if isinstance(statement, ast.ImportFrom) and statement.module and not statement.level:
                for alias in statement.names:
                    exports[alias.asname or alias.name] = (statement.module, alias.name)
    return exports


def lazy_exports(package: str) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` serving ``package``'s declared re-exports.

    The declaration is read from the package's source on the first
    lookup that misses the namespace, not at import.
    """
    module = sys.modules[package]
    namespace = vars(module)

    @functools.cache
    def exports() -> dict[str, tuple[str, str]]:
        path = module.__file__
        if path is None:
            raise ImportError(f"{package} has no source file declaring its re-exports")
        with open(path, encoding="utf-8") as handle:
            return declared_exports(ast.parse(handle.read()))

    def __getattr__(name: str) -> object:
        try:
            origin, attr = exports()[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        if origin == package:  # a submodule, as in ``from repro import obs``
            value: object = importlib.import_module(f"{package}.{attr}")
        else:
            value = getattr(importlib.import_module(origin), attr)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports()})

    return __getattr__, __dir__
