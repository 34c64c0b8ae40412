"""The long-running pace-decision service (see docs/pace_decision_service.md).

BoFL's end product as a request/response API: a
:class:`DecisionRequest` (device archetype, workload, deadline) in, a
:class:`DecisionPlan` (the Eqn. 1 pace schedule) out — served at fleet
rates through an archetype-keyed decision cache, request coalescing, and
graceful degradation, with a deterministic load-generation harness that
replays fleet traces as traffic and reports p50/p99 decision latency.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.service.api import (
        DECISION_SCHEMA_VERSION,
        Decision,
        DecisionPlan,
        DecisionRequest,
        PlanStep,
        request_key_hash,
    )
    from repro.service.archetypes import (
        ArchetypeProfile,
        clear_profile_cache,
        get_profile,
        plan_or_fallback,
    )
    from repro.service.cache import DecisionCache, DecisionCacheStats
    from repro.service.engine import (
        DecisionLog,
        PaceDecisionService,
        ServiceConfig,
        ServiceCostModel,
        ServiceStats,
    )
    from repro.service.loadgen import (
        LoadTestReport,
        PassStats,
        TimedRequest,
        fleet_requests,
        quantile,
        run_loadtest,
    )

__all__ = [
    "DECISION_SCHEMA_VERSION",
    "ArchetypeProfile",
    "Decision",
    "DecisionCache",
    "DecisionCacheStats",
    "DecisionLog",
    "DecisionPlan",
    "DecisionRequest",
    "LoadTestReport",
    "PaceDecisionService",
    "PassStats",
    "PlanStep",
    "ServiceConfig",
    "ServiceCostModel",
    "ServiceStats",
    "TimedRequest",
    "clear_profile_cache",
    "fleet_requests",
    "get_profile",
    "plan_or_fallback",
    "quantile",
    "request_key_hash",
    "run_loadtest",
]

__getattr__, __dir__ = lazy_exports(__name__)
