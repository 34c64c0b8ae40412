"""Deterministic load generation: replay fleet traces as decision traffic.

The load generator turns a :class:`~repro.sim.fleet.FleetSpec` population
into a simulated-clock request stream: every (client, round) pair of the
fleet becomes one :class:`~repro.service.api.DecisionRequest` whose jobs
and deadline are derived exactly the way the campaign runner derives them
(same crc32 scenario seeds, same :class:`UniformDeadlines` draws), so the
service is answering precisely the questions the simulated campaigns
answer — at traffic rates instead of one campaign at a time.

Arrivals come in per-round waves with seeded uniform jitter: archetype
mates ask identical questions within a wave, which is what gives the
decision cache and the coalescing path realistic traffic to work with.
Everything — arrival times, request contents, service outcomes — is a
pure function of ``(spec, rate, passes)``, so two runs of the same
loadtest produce byte-identical decision logs; the CI ``service-smoke``
job diffs them.

Latency percentiles are nearest-rank over simulated decision latencies.
Wall-clock throughput is measured around the whole replay through
``repro.obs`` timers (the one sanctioned wall-clock path) and reported
separately — it never enters the decision log.
"""

from __future__ import annotations

import json
import pathlib
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.federated.deadlines import UniformDeadlines
from repro.obs import runtime as obs
from repro.obs.events import Event, read_jsonl
from repro.service.api import Decision, DecisionRequest
from repro.service.archetypes import get_profile
from repro.service.engine import PaceDecisionService, ServiceConfig, ServiceStats
from repro.sim.fleet import FleetSpec, client_slot
from repro.types import Seconds, require_positive


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (deterministic, interpolation-free)."""
    if not values:
        return 0.0
    if not 0.0 < q <= 1.0:
        raise ConfigurationError(f"quantile must lie in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


def _scenario_seed(device: str, task: str, trace_seed: int) -> int:
    """The campaign runner's deadline/noise seed for one scenario."""
    return zlib.crc32(f"{device}/{task}/{trace_seed}".encode()) % (2**31)


class TimedRequest(NamedTuple):
    """One request plus its simulated arrival offset within a pass.

    A named tuple because a stream holds one per (client, round), and a
    tuple is built without running a Python-level ``__init__``.
    """

    offset: Seconds
    request: DecisionRequest


def fleet_requests(spec: FleetSpec, rate: float) -> list[TimedRequest]:
    """The deterministic request stream one fleet replay generates.

    One request per (client, round).  Round ``r`` arrives in a wave
    starting at ``r * wave_interval`` where the wave is wide enough for
    the whole fleet at ``rate`` requests/second; within the wave each
    client gets seeded uniform jitter.  Stable sort by (offset, client
    index) makes the stream order reproducible even under jitter ties.

    Clients come from :func:`~repro.sim.fleet.client_slot` (no client
    objects), and each distinct (archetype, round) question is validated
    once; its per-client requests are
    :meth:`~repro.service.api.DecisionRequest.for_client` copies.
    """
    require_positive("rate", rate)
    slots = [client_slot(spec, index) for index in range(spec.n_clients)]
    wave_spread = spec.n_clients / rate
    wave_interval = wave_spread * 1.25  # waves overlap-free but back to back
    rng = np.random.default_rng(spec.seed + 0x5E41)
    jitter = rng.uniform(0.0, wave_spread, size=(spec.rounds, spec.n_clients))
    # Jobs and deadlines are an *archetype* property keyed on the fleet
    # seed — not on per-client trace seeds — so clients sharing (device,
    # task) ask the service the identical question each round.  That
    # shared traffic is what exercises the decision cache and the coalescer.
    questions: dict[tuple[str, str], list[DecisionRequest]] = {}
    for device, task in dict.fromkeys((device, task) for device, task, *_ in slots):
        profile = get_profile(device, task)
        jobs = profile.jobs_per_round
        seed = _scenario_seed(device, task, spec.seed)
        deadlines = UniformDeadlines(spec.deadline_ratio).generate(
            profile.t_xmax * jobs, spec.rounds, seed=seed + 1
        )
        questions[(device, task)] = [
            DecisionRequest(device=device, task=task, jobs=jobs, deadline=deadline)
            for deadline in deadlines
        ]
    asks = [
        (questions[(device, task)], client_id)
        for device, task, _, _, _, client_id in slots
    ]
    # Flat index client * rounds + round: client-major, the order in which
    # the stable sort keeps ties.
    offsets = (np.arange(spec.rounds)[:, None] * wave_interval + jitter).T.ravel()
    order = np.lexsort((np.arange(offsets.size) // spec.rounds, offsets))
    client_of, round_of = np.divmod(order, spec.rounds)
    stream: list[TimedRequest] = []
    for offset, index, round_index in zip(
        offsets[order].tolist(), client_of.tolist(), round_of.tolist()
    ):
        per_round, client_id = asks[index]
        stream.append(TimedRequest(offset, per_round[round_index].for_client(client_id)))
    return stream


@dataclass(frozen=True)
class PassStats:
    """Latency/cache telemetry of one replay pass."""

    index: int
    requests: int
    p50: Seconds
    p99: Seconds
    mean: Seconds
    max: Seconds
    cache_hits: int
    cache_misses: int
    coalesced: int
    timeouts: int
    rejections: int
    fallbacks: int
    evaluations: int

    @property
    def cache_hit_rate(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0

    @property
    def coalescing_ratio(self) -> float:
        return self.coalesced / self.requests if self.requests else 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "pass": self.index,
            "requests": self.requests,
            "p50_latency_s": self.p50,
            "p99_latency_s": self.p99,
            "mean_latency_s": self.mean,
            "max_latency_s": self.max,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "coalesced": self.coalesced,
            "coalescing_ratio": self.coalescing_ratio,
            "timeouts": self.timeouts,
            "rejections": self.rejections,
            "fallbacks": self.fallbacks,
            "evaluations": self.evaluations,
        }


@dataclass
class LoadTestReport:
    """The full outcome of one deterministic loadtest."""

    clients: int
    rounds: int
    passes: int
    rate: float
    seed: int
    requests: int
    makespan: Seconds
    p50: Seconds
    p99: Seconds
    mean: Seconds
    max: Seconds
    throughput_rps: float
    stats: ServiceStats
    per_pass: list[PassStats] = field(default_factory=list)
    decisions: list[Decision] = field(default_factory=list)
    #: Wall seconds spent replaying (observability timer; 0 when no
    #: session was active).  Never part of the decision log.
    wall_seconds: float = 0.0

    @property
    def wall_throughput_rps(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def decision_log_lines(self) -> list[str]:
        """Canonical, byte-stable JSON lines — one per decision."""
        return [decision.log_line() for decision in self.decisions]

    def write_decision_log(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(line + "\n" for line in self.decision_log_lines()))
        return path

    def to_dict(self) -> dict[str, object]:
        return {
            "clients": self.clients,
            "rounds": self.rounds,
            "passes": self.passes,
            "rate": self.rate,
            "seed": self.seed,
            "requests": self.requests,
            "makespan_s": self.makespan,
            "p50_latency_s": self.p50,
            "p99_latency_s": self.p99,
            "mean_latency_s": self.mean,
            "max_latency_s": self.max,
            "throughput_rps": self.throughput_rps,
            "wall_seconds": self.wall_seconds,
            "wall_throughput_rps": self.wall_throughput_rps,
            "cache_hit_rate": self.stats.cache_hit_rate,
            "coalescing_ratio": self.stats.coalescing_ratio,
            "evaluations": self.stats.evaluations,
            "timeouts": self.stats.timeouts,
            "rejections": self.stats.rejections,
            "fallbacks": self.stats.fallbacks,
            "peak_queue_depth": self.stats.peak_queue_depth,
            "passes_detail": [p.to_dict() for p in self.per_pass],
        }

    def write_json(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    def render(self) -> str:
        lines = [
            "Loadtest summary",
            f"  fleet            : {self.clients} clients x {self.rounds} rounds"
            f" x {self.passes} pass(es), seed {self.seed}",
            f"  requests         : {self.requests} at {self.rate:g} req/s"
            f" (makespan {self.makespan:.3f} s simulated)",
            f"  decision latency : p50 {self.p50 * 1e3:.3f} ms"
            f"  p99 {self.p99 * 1e3:.3f} ms  mean {self.mean * 1e3:.3f} ms"
            f"  max {self.max * 1e3:.3f} ms",
            f"  throughput       : {self.throughput_rps:.1f} req/s simulated"
            + (
                f", {self.wall_throughput_rps:.0f} req/s wall"
                if self.wall_seconds > 0
                else ""
            ),
            f"  cache hit rate   : {self.stats.cache_hit_rate:.1%}"
            f"  (hits {self.stats.cache_hits}, misses {self.stats.cache_misses})",
            f"  coalescing ratio : {self.stats.coalescing_ratio:.1%}"
            f"  ({self.stats.coalesced} of {self.stats.requests} requests)",
            f"  degradations     : {self.stats.timeouts} timeout(s),"
            f" {self.stats.rejections} rejection(s), {self.stats.fallbacks} fallback(s)",
            f"  evaluations      : {self.stats.evaluations}"
            f"  (peak queue depth {self.stats.peak_queue_depth})",
        ]
        for stats in self.per_pass:
            lines.append(
                f"  pass {stats.index}           : p50 {stats.p50 * 1e3:.3f} ms"
                f"  p99 {stats.p99 * 1e3:.3f} ms"
                f"  hit rate {stats.cache_hit_rate:.1%}"
                f"  coalesced {stats.coalescing_ratio:.1%}"
            )
        return "\n".join(lines)


def _pass_stats(
    index: int,
    decisions: list[Decision],
    before: ServiceStats,
    after: ServiceStats,
) -> PassStats:
    latencies = [d.latency for d in decisions]
    return PassStats(
        index=index,
        requests=len(decisions),
        p50=quantile(latencies, 0.50),
        p99=quantile(latencies, 0.99),
        mean=float(np.mean(latencies)) if latencies else 0.0,
        max=max(latencies) if latencies else 0.0,
        cache_hits=after.cache_hits - before.cache_hits,
        cache_misses=after.cache_misses - before.cache_misses,
        coalesced=after.coalesced - before.coalesced,
        timeouts=after.timeouts - before.timeouts,
        rejections=after.rejections - before.rejections,
        fallbacks=after.fallbacks - before.fallbacks,
        evaluations=after.evaluations - before.evaluations,
    )


def run_loadtest(
    spec: FleetSpec,
    *,
    rate: float = 200.0,
    passes: int = 1,
    config: Optional[ServiceConfig] = None,
    service: Optional[PaceDecisionService] = None,
) -> LoadTestReport:
    """Replay the fleet's request trace ``passes`` times through a service.

    Every pass replays the *same* trace (same requests, same relative
    arrival offsets), shifted to start after the previous pass drained —
    so a second pass measures a warm decision cache, which is exactly
    what the CI smoke gate asserts (>= 50% hit rate on pass two).
    """
    if passes < 1:
        raise ConfigurationError(f"passes must be >= 1, got {passes}")
    service = service if service is not None else PaceDecisionService(config)
    trace = fleet_requests(spec, rate)
    per_pass: list[PassStats] = []
    with obs.timer("service.loadtest_wall_s") as span:
        for pass_index in range(passes):
            base = service.clock.now
            before = service.stats()
            first_decision = len(service.decisions)
            for timed in trace:
                service.submit(timed.request, at=base + timed.offset)
            service.drain()
            after = service.stats()
            stats = _pass_stats(
                pass_index + 1,
                service.decisions[first_decision:],
                before,
                after,
            )
            per_pass.append(stats)
            if obs.enabled():
                obs.emit(
                    "loadgen.pass",
                    t=service.clock.now,
                    index=stats.index,
                    requests=stats.requests,
                    p50=stats.p50,
                    p99=stats.p99,
                    cache_hit_rate=stats.cache_hit_rate,
                    coalescing_ratio=stats.coalescing_ratio,
                )
    final = service.close()
    decisions = list(service.decisions)
    latencies = [d.latency for d in decisions]
    makespan = service.clock.now
    return LoadTestReport(
        clients=spec.n_clients,
        rounds=spec.rounds,
        passes=passes,
        rate=rate,
        seed=spec.seed,
        requests=len(decisions),
        makespan=makespan,
        p50=quantile(latencies, 0.50),
        p99=quantile(latencies, 0.99),
        mean=float(np.mean(latencies)) if latencies else 0.0,
        max=max(latencies) if latencies else 0.0,
        throughput_rps=len(decisions) / makespan if makespan > 0 else 0.0,
        stats=final,
        per_pass=per_pass,
        decisions=decisions,
        wall_seconds=span.elapsed,
    )


def service_report_from_trace(path: Union[str, pathlib.Path]) -> str:
    """Recompute a loadtest summary from a recorded observability trace.

    The ``service.decision`` events carry each decision's simulated
    latency and provenance, so the percentiles and ratios rendered here
    are exactly reproducible from the JSONL alone — the same replay
    discipline as ``repro chaos report`` / ``repro fleet report``.
    """
    events = read_jsonl(path)
    decisions = [e for e in events if e.kind == "service.decision"]
    if not decisions:
        raise ConfigurationError(
            f"{path} contains no service.decision events; was it recorded "
            "by `repro loadtest --trace`?"
        )
    latencies = [float(_payload_number(e, "latency")) for e in decisions]
    sources: dict[str, int] = {}
    for event in decisions:
        source = str(event.payload.get("source", "?"))
        sources[source] = sources.get(source, 0) + 1
    coalesced = sum(1 for e in decisions if e.payload.get("coalesced"))
    degraded = sum(1 for e in decisions if e.payload.get("degraded"))
    evaluations = sum(1 for e in events if e.kind == "service.evaluate")
    makespan = max(e.t for e in decisions)
    lines = [
        "Service trace summary",
        f"  decisions        : {len(decisions)} over {makespan:.3f} s simulated",
        f"  decision latency : p50 {quantile(latencies, 0.5) * 1e3:.3f} ms"
        f"  p99 {quantile(latencies, 0.99) * 1e3:.3f} ms",
        "  sources          : "
        + ", ".join(f"{k}={sources[k]}" for k in sorted(sources)),
        f"  coalesced        : {coalesced}",
        f"  degraded         : {degraded}",
        f"  evaluations      : {evaluations}",
    ]
    passes = [e for e in events if e.kind == "loadgen.pass"]
    for event in passes:
        lines.append(
            f"  pass {event.payload.get('index')}           : "
            f"p99 {float(_payload_number(event, 'p99')) * 1e3:.3f} ms  "
            f"hit rate {float(_payload_number(event, 'cache_hit_rate')):.1%}"
        )
    return "\n".join(lines)


def _payload_number(event: Event, key: str) -> float:
    value = event.payload.get(key, 0.0)
    if not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"event {event.kind} payload field {key!r} is not numeric: {value!r}"
        )
    return float(value)
