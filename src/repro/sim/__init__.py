"""Experiment harness: MBO cost model, campaign runner and executor.

:func:`run_campaign` is the workhorse behind every evaluation figure: it
wires a device, task, deadline schedule and controller together, runs the
requested number of FL rounds under simulated time, and returns a
:class:`~repro.core.records.CampaignResult`.  Results are memoized
in-process so benchmark modules can share campaigns; a durable
:class:`PersistentCampaignCache` can be installed underneath the memo, and
:class:`CampaignExecutor` fans whole campaign grids out over worker
processes with results identical to the serial path.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.schedule import CHAOS_PRESETS
    from repro.sim.chaos import (
        ChaosRunResult,
        chaos_report_from_trace,
        preset_schedule,
        run_chaos,
    )
    from repro.sim.cache import (
        CACHE_DIR_ENV,
        CACHE_SCHEMA_VERSION,
        CacheStats,
        PersistentCampaignCache,
        cache_key_hash,
        default_cache_dir,
    )
    from repro.sim.executor import (
        CampaignExecutor,
        CampaignSpec,
        CampaignTiming,
        ExecutionReport,
        execute_campaigns,
        expand_grid,
        resolve_workers,
    )
    from repro.sim.fleet import (
        FLEET_SELECTORS,
        FleetSpec,
        build_fleet_clients,
        campaign_spec_for,
        compose_fleet,
        fleet_summary,
        prepare_fleet,
        render_fleet_summary,
        run_fleet,
    )
    from repro.sim.mbo_cost import MBOCostModel
    from repro.sim.choices import CONTROLLER_NAMES
    from repro.sim.runner import (
        campaign_key,
        clear_campaign_cache,
        get_persistent_cache,
        install_persistent_cache,
        make_controller,
        prime_campaign_cache,
        run_campaign,
    )
    from repro.sim.sweep import SummaryStat, SweepResult, sweep_campaign

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "CHAOS_PRESETS",
    "CONTROLLER_NAMES",
    "CacheStats",
    "CampaignExecutor",
    "CampaignSpec",
    "CampaignTiming",
    "ChaosRunResult",
    "ExecutionReport",
    "FLEET_SELECTORS",
    "FleetSpec",
    "MBOCostModel",
    "PersistentCampaignCache",
    "SummaryStat",
    "SweepResult",
    "build_fleet_clients",
    "cache_key_hash",
    "campaign_key",
    "campaign_spec_for",
    "compose_fleet",
    "fleet_summary",
    "prepare_fleet",
    "render_fleet_summary",
    "run_fleet",
    "chaos_report_from_trace",
    "clear_campaign_cache",
    "default_cache_dir",
    "execute_campaigns",
    "expand_grid",
    "get_persistent_cache",
    "install_persistent_cache",
    "make_controller",
    "preset_schedule",
    "prime_campaign_cache",
    "resolve_workers",
    "run_campaign",
    "run_chaos",
    "sweep_campaign",
]

__getattr__, __dir__ = lazy_exports(__name__)
