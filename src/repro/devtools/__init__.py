"""Developer tooling that ships with the library.

``repro.devtools.lint`` is the determinism-aware static-analysis suite
behind the ``repro lint`` CLI subcommand; see ``docs/static_analysis.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.devtools.lint.engine import LintReport, Rule, Violation, lint_paths

__all__ = ["LintReport", "Rule", "Violation", "lint_paths"]

__getattr__, __dir__ = lazy_exports(__name__)
