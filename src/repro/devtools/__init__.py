"""Developer tooling that ships with the library.

``repro.devtools.analyze`` is the determinism-aware static-analysis
engine behind the ``repro analyze`` CLI subcommand; see
``docs/static_analysis.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.devtools.analyze import AnalysisReport, Finding, analyze_paths

__all__ = ["AnalysisReport", "Finding", "analyze_paths"]

__getattr__, __dir__ = lazy_exports(__name__)
