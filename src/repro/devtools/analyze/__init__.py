"""Determinism-aware static analysis (``repro analyze``).

One engine reads every ``.py`` under the given paths once into a
project-wide module/call graph, then runs six per-module checkers (a
wall-clock read, an unseeded ``random.*`` call, an ``assert`` used as
validation, ...) and four whole-program checkers that prove the
cross-module contracts: interprocedural determinism taint, cache-key
completeness, obs-registry closure, and process-boundary safety.  See
``docs/static_analysis.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.devtools.analyze.boundaries import DEFAULT_WORKER_ROOTS
    from repro.devtools.analyze.driver import (
        DEFAULT_CONFIG,
        AnalyzeConfig,
        analyze_paths,
        find_repo_root,
    )
    from repro.devtools.analyze.findings import (
        ANALYSIS_REPORT_VERSION,
        BASELINE_VERSION,
        CHECKER_IDS,
        CHECKERS,
        AnalysisReport,
        Finding,
        RatchetResult,
        load_baseline,
        ratchet,
        render_baseline,
    )
    from repro.devtools.analyze.keys import DEFAULT_CONTRACTS, KeyContract

__all__ = [
    "ANALYSIS_REPORT_VERSION",
    "AnalysisReport",
    "AnalyzeConfig",
    "BASELINE_VERSION",
    "CHECKERS",
    "CHECKER_IDS",
    "DEFAULT_CONFIG",
    "DEFAULT_CONTRACTS",
    "DEFAULT_WORKER_ROOTS",
    "Finding",
    "KeyContract",
    "RatchetResult",
    "analyze_paths",
    "find_repo_root",
    "load_baseline",
    "ratchet",
    "render_baseline",
]

__getattr__, __dir__ = lazy_exports(__name__)
