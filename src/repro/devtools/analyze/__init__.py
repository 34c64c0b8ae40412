"""Whole-program determinism analysis (``repro analyze``).

Where ``repro.devtools.lint`` checks one file at a time, this package
builds a project-wide module/call graph over ``src/repro`` and proves
the cross-module contracts the lint cannot see: interprocedural
determinism taint, cache-key completeness, obs-registry closure, and
process-boundary safety.  See ``docs/static_analysis.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.devtools.analyze.boundaries import DEFAULT_WORKER_ROOTS
    from repro.devtools.analyze.driver import (
        DEFAULT_CONFIG,
        AnalyzeConfig,
        analyze_paths,
    )
    from repro.devtools.analyze.findings import (
        ANALYSIS_REPORT_VERSION,
        BASELINE_VERSION,
        CHECKER_IDS,
        CHECKER_SUMMARIES,
        AnalysisReport,
        Finding,
        RatchetResult,
        load_baseline,
        ratchet,
        render_baseline,
        write_baseline,
    )
    from repro.devtools.analyze.keys import DEFAULT_CONTRACTS, KeyContract

__all__ = [
    "ANALYSIS_REPORT_VERSION",
    "AnalysisReport",
    "AnalyzeConfig",
    "BASELINE_VERSION",
    "CHECKER_IDS",
    "CHECKER_SUMMARIES",
    "DEFAULT_CONFIG",
    "DEFAULT_CONTRACTS",
    "DEFAULT_WORKER_ROOTS",
    "Finding",
    "KeyContract",
    "RatchetResult",
    "analyze_paths",
    "load_baseline",
    "ratchet",
    "render_baseline",
    "write_baseline",
]

__getattr__, __dir__ = lazy_exports(__name__)
