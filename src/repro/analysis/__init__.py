"""Metrics and report rendering for the evaluation experiments."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.metrics import (
        energy_spread,
        exploration_summary,
        front_coverage,
        hypervolume_ratio,
        improvement_vs_performant,
        latency_spread,
        regret_vs_oracle,
    )
    from repro.analysis.tables import ascii_table, format_series, render_kv
    from repro.analysis.charts import line_chart, sparkline
    from repro.analysis.io import (
        campaign_from_dict,
        campaign_to_dict,
        load_campaign,
        save_campaign,
    )

__all__ = [
    "ascii_table",
    "campaign_from_dict",
    "campaign_to_dict",
    "line_chart",
    "load_campaign",
    "save_campaign",
    "sparkline",
    "energy_spread",
    "exploration_summary",
    "format_series",
    "front_coverage",
    "hypervolume_ratio",
    "improvement_vs_performant",
    "latency_spread",
    "regret_vs_oracle",
    "render_kv",
]

__getattr__, __dir__ = lazy_exports(__name__)
