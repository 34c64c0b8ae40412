"""The long-running pace-decision service.

A deterministic single-solver queueing model over the archetype profiles
and the Eqn. 1 ILP, driven entirely by simulated time so loadtests are
byte-reproducible:

* **Requests** arrive with nondecreasing simulated timestamps
  (:meth:`PaceDecisionService.submit`) and drain FIFO through one solver
  lane.  Each serviced entry occupies the lane for a deterministic
  service time from :class:`ServiceCostModel` — a cache hit costs
  microseconds, a full profile + ILP evaluation costs milliseconds, and
  the first request against a cold archetype additionally pays the
  profile-build cost.  Queueing delay under load is what the p50/p99
  percentiles measure.
* **Coalescing** — a request whose token hash matches an entry that is
  still queued *or in flight* joins that entry and shares its single
  evaluation; joiners complete at the shared completion time with source
  ``coalesced``.
* **Graceful degradation** — the queue is bounded: submits beyond
  ``max_queue`` distinct entries are answered immediately from the
  decision cache (stale-tolerant) or with the ``x_max`` fallback plan.
  Entries that waited longer than ``timeout`` before their evaluation
  started are answered the same way at ``arrival + timeout`` by the
  deadline watchdog instead of the solver.  Both paths emit a
  ``service.degraded`` event.

Nothing here reads the wall clock; wall-clock throughput is measured by
the load generator around the whole replay, through ``repro.obs`` timers.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.clock import SimulationClock
from repro.errors import ConfigurationError, ReproError
from repro.obs import runtime as obs
from repro.service.api import (
    Decision,
    DecisionPlan,
    DecisionRequest,
    request_key_hash,
)
from repro.service.archetypes import ArchetypeProfile, get_profile, plan_or_fallback
from repro.service.cache import DecisionCache, DecisionCacheStats
from repro.types import Seconds, require_positive

#: How the service obtains an archetype profile; injectable for tests.
ProfileResolver = Callable[[str, str], ArchetypeProfile]


@dataclass(frozen=True)
class ServiceCostModel:
    """Deterministic simulated service times (seconds) per decision path.

    Defaults are calibrated against the measured wall-clock cost of the
    corresponding operations on the development machine (see
    ``benchmarks/bench_service.py``): an ILP solve over a few dozen
    Pareto candidates lands in the low milliseconds, a cache hit is a
    dictionary probe, and building an archetype profile (whole-space
    tensor + Pareto mask) is a one-off tens-of-milliseconds cost.
    """

    #: Decision served from the decision cache.
    hit: Seconds = 2e-4
    #: Base cost of one profile + ILP evaluation...
    evaluate: Seconds = 2e-3
    #: ...plus this much per Pareto candidate in the ILP.
    per_candidate: Seconds = 2e-5
    #: One-off cost the first time an archetype is profiled.
    profile_build: Seconds = 5e-2
    #: Watchdog response (timeout / queue-full degradation).
    degraded: Seconds = 1e-4

    def __post_init__(self) -> None:
        for name in ("hit", "evaluate", "per_candidate", "profile_build", "degraded"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"cost model field {name} must be finite and >= 0, got {value!r}"
                )

    def evaluation_time(self, candidates: int, cold_profile: bool) -> Seconds:
        extra = self.profile_build if cold_profile else 0.0
        return self.evaluate + self.per_candidate * candidates + extra


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`PaceDecisionService` instance."""

    #: Maximum distinct queued/in-flight evaluations before submits degrade.
    max_queue: int = 256
    #: Queueing-delay budget: entries that wait longer are answered by the
    #: watchdog (cache or fallback) instead of the solver.
    timeout: Seconds = 0.25
    #: Decision-cache capacity (LRU entries).
    cache_entries: int = 2048
    costs: ServiceCostModel = field(default_factory=ServiceCostModel)

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ConfigurationError(f"max_queue must be >= 1, got {self.max_queue}")
        require_positive("timeout", self.timeout)
        if self.cache_entries < 1:
            raise ConfigurationError(
                f"cache_entries must be >= 1, got {self.cache_entries}"
            )


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate telemetry of one service lifetime."""

    requests: int
    decisions: int
    evaluations: int
    cache_hits: int
    cache_misses: int
    coalesced: int
    timeouts: int
    rejections: int
    fallbacks: int
    peak_queue_depth: int
    cache: DecisionCacheStats

    @property
    def cache_hit_rate(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0

    @property
    def coalescing_ratio(self) -> float:
        return self.coalesced / self.requests if self.requests else 0.0


@dataclass
class _Waiter:
    """One request waiting on a pending entry."""

    sequence: int
    request: DecisionRequest
    arrival: Seconds
    is_leader: bool


@dataclass
class _Pending:
    """One distinct queued/in-flight evaluation and its waiters."""

    key: str
    arrival: Seconds
    waiters: list[_Waiter]
    #: Memoized (plan, cold-profile?, candidates, service_time) — the
    #: evaluation itself is a pure function of the leader request and of
    #: cache/profile state, which cannot change while this entry is
    #: pending (only the head commits, and coalescing keeps identical
    #: keys on one entry).  Without the memo every tentative settle peek
    #: would re-solve the ILP.
    outcome: Optional[tuple[DecisionPlan, bool, int, Seconds]] = None


class PaceDecisionService:
    """Request/response pace decisions over a deterministic solver queue."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        clock: Optional[SimulationClock] = None,
        profiles: Optional[ProfileResolver] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.clock = clock if clock is not None else SimulationClock()
        self._resolve_profile: ProfileResolver = (
            profiles if profiles is not None else get_profile
        )
        #: Every archetype submitted so far, resolved once at its first submit.
        self._profiles: dict[tuple[str, str], ArchetypeProfile] = {}
        self.cache = DecisionCache(self.config.cache_entries)
        self._pending: "OrderedDict[str, _Pending]" = OrderedDict()
        self._warm_archetypes: set[tuple[str, str]] = set()
        self._busy_until: Seconds = 0.0
        self._sequence = 0
        self._last_arrival: Seconds = 0.0
        self.decisions: list[Decision] = []
        # Telemetry
        self.requests = 0
        self.evaluations = 0
        self.coalesced = 0
        self.timeouts = 0
        self.rejections = 0
        self.fallbacks = 0
        self.peak_queue_depth = 0
        if obs.enabled():
            obs.emit(
                "service.start",
                t=self.clock.now,
                max_queue=self.config.max_queue,
                timeout=self.config.timeout,
                cache_entries=self.config.cache_entries,
            )

    # -- public API ---------------------------------------------------------

    def submit(self, request: DecisionRequest, at: Optional[Seconds] = None) -> None:
        """Enqueue one request arriving at simulated time ``at``.

        Arrivals must be finite and nondecreasing (the load generator
        submits in time order); ``at=None`` means "now".  A request for a
        device or task that has no profile raises
        :class:`~repro.errors.ConfigurationError` here, before the clock,
        the counters or the queue change, so the service keeps answering
        later requests.  The call first settles every evaluation that
        completes before ``at``, so coalescing only joins entries that are
        genuinely still queued or in flight.
        """
        arrival = self.clock.now if at is None else float(at)
        if not math.isfinite(arrival):
            raise ConfigurationError(f"arrival time must be finite, got {arrival}")
        if arrival < self._last_arrival:
            raise ConfigurationError(
                f"arrivals must be nondecreasing: {arrival} after {self._last_arrival}"
            )
        self._profile(request)
        self._last_arrival = arrival
        self._settle(arrival)
        self.clock.advance_to(arrival)
        self.requests += 1
        if obs.enabled():
            obs.count("service.requests")
        key = request_key_hash(request)
        self._sequence += 1
        waiter = _Waiter(self._sequence, request, arrival, is_leader=False)
        pending = self._pending.get(key)
        if pending is not None:
            # Coalesce: share the queued/in-flight evaluation.
            pending.waiters.append(waiter)
            self.coalesced += 1
            if obs.enabled():
                obs.count("service.coalesced")
            return
        if len(self._pending) >= self.config.max_queue:
            # Bounded queue: answer from the watchdog immediately.
            self.rejections += 1
            self._degrade(waiter, reason="queue_full")
            return
        waiter.is_leader = True
        self._pending[key] = _Pending(key=key, arrival=arrival, waiters=[waiter])
        self.peak_queue_depth = max(self.peak_queue_depth, len(self._pending))

    def decide(
        self, request: DecisionRequest, at: Optional[Seconds] = None
    ) -> Decision:
        """Synchronous convenience: submit, drain, return the decision."""
        before = len(self.decisions)
        self.submit(request, at)
        self.drain()
        for decision in self.decisions[before:]:
            if decision.request is request:
                return decision
        # A coalesced or degraded submit still lands exactly one decision.
        return self.decisions[-1]

    def drain(self) -> None:
        """Settle every queued evaluation (advance time past the backlog)."""
        self._settle(None)

    def close(self) -> ServiceStats:
        """Drain, emit the end-of-life event, and return final stats."""
        self.drain()
        stats = self.stats()
        if obs.enabled():
            obs.emit(
                "service.end",
                t=self.clock.now,
                requests=stats.requests,
                decisions=stats.decisions,
                evaluations=stats.evaluations,
                cache_hits=stats.cache_hits,
                coalesced=stats.coalesced,
                timeouts=stats.timeouts,
                rejections=stats.rejections,
                fallbacks=stats.fallbacks,
            )
        return stats

    def stats(self) -> ServiceStats:
        cache_stats = self.cache.stats()
        return ServiceStats(
            requests=self.requests,
            decisions=len(self.decisions),
            evaluations=self.evaluations,
            cache_hits=cache_stats.hits,
            cache_misses=cache_stats.misses,
            coalesced=self.coalesced,
            timeouts=self.timeouts,
            rejections=self.rejections,
            fallbacks=self.fallbacks,
            peak_queue_depth=self.peak_queue_depth,
            cache=cache_stats,
        )

    # -- queue machinery ----------------------------------------------------

    def _profile(self, request: DecisionRequest) -> ArchetypeProfile:
        """The request's archetype profile, resolved on its first submit."""
        archetype = (request.device, request.task)
        profile = self._profiles.get(archetype)
        if profile is None:
            try:
                profile = self._resolve_profile(*archetype)
            except ReproError as error:
                raise ConfigurationError(
                    f"no profile for device {request.device!r}, "
                    f"task {request.task!r}: {error}"
                ) from error
            self._profiles[archetype] = profile
        return profile

    def _settle(self, until: Optional[Seconds]) -> None:
        """Finalize FIFO entries whose evaluation completes by ``until``.

        ``until=None`` settles everything.  An entry whose evaluation
        would still be running at ``until`` is left pending — it is the
        in-flight entry new arrivals may coalesce onto.
        """
        while self._pending:
            head = next(iter(self._pending.values()))
            start = max(self._busy_until, head.arrival)
            if until is not None and start > until:
                break
            served, timed_out = self._split_by_timeout(head, start)
            if not served:
                # Every waiter timed out in queue; the solver never runs.
                del self._pending[head.key]
                for waiter in timed_out:
                    self._watchdog_answer(waiter, reason="timeout")
                continue
            if head.outcome is None:
                head.outcome = self._evaluation_outcome(served[0].request)
            plan, cold, candidates, service_time = head.outcome
            completion = start + service_time
            if until is not None and completion > until:
                break
            del self._pending[head.key]
            for waiter in timed_out:
                self._watchdog_answer(waiter, reason="timeout")
            self._commit_evaluation(
                head, served, start, completion, plan, cold, candidates
            )

    def _split_by_timeout(
        self, entry: _Pending, start: Seconds
    ) -> tuple[list[_Waiter], list[_Waiter]]:
        """Partition an entry's waiters into (served, timed out) at ``start``."""
        served: list[_Waiter] = []
        timed_out: list[_Waiter] = []
        for waiter in entry.waiters:
            if start - waiter.arrival > self.config.timeout:
                timed_out.append(waiter)
            else:
                served.append(waiter)
        return served, timed_out

    def _evaluation_outcome(
        self, leader: DecisionRequest
    ) -> tuple[DecisionPlan, bool, int, Seconds]:
        """The (plan, cold-profile?, candidates, service_time) of one evaluation.

        Pure with respect to the service: cache/profile/counter state is
        only mutated in :meth:`_commit_evaluation` once the completion is
        accepted, so :meth:`_settle` can peek at in-flight completions.
        """
        cached = self.cache.peek(leader)
        if cached is not None:
            return cached.with_source("cache"), False, 0, self.config.costs.hit
        cold = (leader.device, leader.task) not in self._warm_archetypes
        profile = self._profile(leader)
        schedule, fell_back = plan_or_fallback(
            profile, leader.jobs, leader.deadline, leader.safety_margin
        )
        source = "fallback" if fell_back else "computed"
        plan = DecisionPlan.from_schedule(request_key_hash(leader), schedule, source)
        service_time = self.config.costs.evaluation_time(profile.n_candidates, cold)
        return plan, cold, profile.n_candidates, service_time

    def _commit_evaluation(
        self,
        entry: _Pending,
        served: list[_Waiter],
        start: Seconds,
        completion: Seconds,
        plan: DecisionPlan,
        cold: bool,
        candidates: int,
    ) -> None:
        """Apply one settled evaluation: cache, clock, decisions, telemetry."""
        leader = served[0].request
        if plan.source == "cache":
            self.cache.get(leader)  # register the hit + LRU touch
            if obs.enabled():
                obs.count("service.cache_hits")
        else:
            self.cache.get(leader)  # register the miss
            self.evaluations += 1
            if cold:
                self._warm_archetypes.add((leader.device, leader.task))
            if plan.source == "fallback":
                self.fallbacks += 1
                if obs.enabled():
                    obs.count("service.fallbacks")
            self.cache.put(leader, plan.with_source("computed"))
            if obs.enabled():
                obs.count("service.cache_misses")
                obs.emit(
                    "service.evaluate",
                    t=completion,
                    device=leader.device,
                    task=leader.task,
                    candidates=candidates,
                    service_time=completion - start,
                    cold_profile=cold,
                    queue_depth=len(self._pending),
                )
        self._busy_until = completion
        self.clock.advance_to(completion)
        for position, waiter in enumerate(served):
            source = plan.source if position == 0 else "coalesced"
            self._record(
                Decision(
                    request=waiter.request,
                    plan=plan.with_source(source),
                    arrival=waiter.arrival,
                    completed=completion,
                    coalesced=position > 0,
                    sequence=waiter.sequence,
                )
            )

    # -- degradation paths ---------------------------------------------------

    def _degrade(self, waiter: _Waiter, reason: str) -> None:
        """Queue-full path: answer immediately, off the solver lane."""
        self._watchdog_answer(waiter, reason=reason, at=waiter.arrival)

    def _watchdog_answer(
        self, waiter: _Waiter, reason: str, at: Optional[Seconds] = None
    ) -> None:
        """Serve a degraded answer: cached plan if present, else x_max.

        Timeout answers complete at ``arrival + timeout`` (the watchdog
        fires when the budget expires); queue-full answers complete after
        the watchdog's own constant cost.
        """
        request = waiter.request
        if reason == "timeout":
            self.timeouts += 1
            completed = waiter.arrival + self.config.timeout
            if obs.enabled():
                obs.count("service.timeouts")
        else:
            completed = (waiter.arrival if at is None else at) + self.config.costs.degraded
            if obs.enabled():
                obs.count("service.rejections")
        cached = self.cache.get(request)
        if cached is not None:
            plan = cached.with_source("cache")
        else:
            schedule = self._profile(request).fallback_plan(request.jobs)
            plan = DecisionPlan.from_schedule(
                request_key_hash(request), schedule, "fallback"
            )
            self.fallbacks += 1
            if obs.enabled():
                obs.count("service.fallbacks")
        if obs.enabled():
            obs.emit(
                "service.degraded",
                t=completed,
                reason=reason,
                source=plan.source,
                client_id=request.client_id,
                queue_depth=len(self._pending),
            )
        self._record(
            Decision(
                request=request,
                plan=plan,
                arrival=waiter.arrival,
                completed=completed,
                coalesced=False,
                degraded=reason,
                sequence=waiter.sequence,
            )
        )

    def _record(self, decision: Decision) -> None:
        self.decisions.append(decision)
        if obs.enabled():
            obs.observe("service.decision_latency_s", decision.latency)
            obs.emit(
                "service.decision",
                t=decision.completed,
                client_id=decision.request.client_id,
                request_hash=request_key_hash(decision.request),
                source=decision.plan.source,
                latency=decision.latency,
                coalesced=decision.coalesced,
                degraded=decision.degraded or "",
                jobs=decision.request.jobs,
                deadline=decision.request.deadline,
            )
