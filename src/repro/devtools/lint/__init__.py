"""Determinism-aware static analysis (``repro lint``).

Public surface: the engine types plus :func:`lint_paths`; the built-in
rules register themselves when the engine enumerates the registry.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.devtools.lint.engine import (
        LINT_REPORT_VERSION,
        LintReport,
        Rule,
        SourceFile,
        Violation,
        find_repo_root,
        get_rule,
        iter_rules,
        lint_paths,
        register_rule,
    )

__all__ = [
    "LINT_REPORT_VERSION",
    "LintReport",
    "Rule",
    "SourceFile",
    "Violation",
    "find_repo_root",
    "get_rule",
    "iter_rules",
    "lint_paths",
    "register_rule",
]

__getattr__, __dir__ = lazy_exports(__name__)
