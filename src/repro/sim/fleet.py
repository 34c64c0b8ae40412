"""Fleet orchestration: build, trace, and compose thousand-client federations.

This is the scaling layer on top of :mod:`repro.federated.async_engine`.
A :class:`FleetSpec` declares a heterogeneous client population — devices,
tasks and pace controllers assigned round-robin — and the fleet run splits
into two phases with very different execution profiles:

1. **Trace gathering** (:func:`prepare_fleet`): every client's local
   training rounds are an ordinary campaign
   (:func:`repro.sim.runner.run_campaign`), so the fleet rides the whole
   campaign machinery for free — the in-process memo, the persistent
   on-disk cache, and the :class:`~repro.sim.executor.CampaignExecutor`
   process pool.  ``archetypes`` pools clients onto shared trace seeds
   (real fleets show population-level redundancy; simulation exploits it):
   a 1,000-client fleet collapses to a handful of unique campaigns, which
   is what makes it run in minutes on one machine.
2. **Composition** (:func:`compose_fleet`): a pure, serial, deterministic
   function of the traces and the fleet seed.  No wall clock, no pool —
   which is why serial and sharded trace gathering yield byte-identical
   deterministic observability traces: open the obs session around *this*
   phase (the CLI's ``repro fleet run --trace`` does), and the only events
   captured are the engine's own ``fleet.*`` kinds, independent of how the
   traces were computed.

Fault composition: each chaotic client derives one schedule of
``client_dropout`` + ``transport_stall`` windows from the fleet seed; the
dropout windows join the client's *campaign* key (the chaos engine idles
the device through them), while the stall windows stay fleet-side and
delay report arrivals.  Both effects land in the same composition without
either subsystem knowing about the other.

Import cost: the top level loads only what :class:`FleetSpec` validation
needs.  The federation engine, selectors, fault schedules and server
controllers load inside :func:`build_fleet_clients`,
:func:`campaign_spec_for` and :func:`compose_fleet`, so the decision
service's request stream, which reads its clients from
:func:`client_slot`, never loads them.
"""

from __future__ import annotations

import math
import pathlib
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import ConfigurationError
from repro.federated.choices import FLEET_MODES
from repro.federated.transport import MODEL_SIZES_MBIT

if TYPE_CHECKING:
    from repro.faults.schedule import FaultSchedule, FaultSpec
    from repro.federated.async_engine import FleetClient, FleetResult
    from repro.federated.selection import ClientSelector
    from repro.servertune.controllers import ServerTuneSpec
    from repro.sim.cache import PersistentCampaignCache
    from repro.sim.executor import CampaignSpec, ProgressCallback

#: Default heterogeneous population: both testbed boards, all three paper
#: tasks, BoFL pacing against the Performant baseline.
FLEET_DEVICES: tuple[str, ...] = ("agx", "tx2")
FLEET_TASKS: tuple[str, ...] = ("vit", "resnet50", "lstm")
FLEET_CONTROLLERS: tuple[str, ...] = ("bofl", "performant")

#: Selector strategies ``compose_fleet`` knows how to build.
FLEET_SELECTORS: tuple[str, ...] = ("all", "random", "energy")


def _stable_seed(label: str) -> int:
    """A process-stable 31-bit seed derived from a label string.

    The same crc32 derivation the campaign runner uses for scenario
    seeds: stable across processes and Python versions, unlike the
    builtin string hash.
    """
    return zlib.crc32(label.encode()) % (2**31)


@dataclass(frozen=True)
class FleetSpec:
    """One declarative fleet run: population, pacing, and discipline."""

    n_clients: int = 100
    rounds: int = 10
    mode: str = "sync"
    deadline_ratio: float = 2.0
    seed: int = 0
    devices: tuple[str, ...] = FLEET_DEVICES
    tasks: tuple[str, ...] = FLEET_TASKS
    controllers: tuple[str, ...] = FLEET_CONTROLLERS
    #: Pool clients onto this many shared trace seeds (None: all distinct).
    archetypes: Optional[int] = 12
    #: Aggregation target per round (None: everyone participates).
    participants: Optional[int] = None
    #: ``semisync``: select ``ceil(participants x over_selection)`` clients.
    over_selection: float = 1.3
    #: ``async``: commit a model version per this many buffered reports.
    buffer_size: int = 16
    #: ``async``: staleness-discount exponent for report weights.
    staleness_exponent: float = 0.5
    #: ``async``: drop reports staler than this many versions (None: keep).
    max_staleness: Optional[int] = None
    selector: str = "random"
    #: Fraction of clients running under a derived chaos schedule.
    chaos_fraction: float = 0.0
    chaos_seed: int = 0
    #: Optional adaptive server controller: reshapes per-archetype trace
    #: deadlines (it joins every client's campaign key) and adapts the
    #: composition's participation/patience/buffer knobs per round.
    #: Static specs normalize to None, preserving pre-subsystem behaviour.
    servertune: Optional[ServerTuneSpec] = None
    #: Hierarchical aggregation: fold client updates through this many
    #: edge aggregators before the server (None: flat, the default).
    #: Changes the aggregation arithmetic (a reweighted two-stage mean),
    #: so it is part of the spec, not a composition tuning knob.
    edges: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ConfigurationError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if self.mode not in FLEET_MODES:
            raise ConfigurationError(
                f"unknown fleet mode {self.mode!r}; available: "
                f"{', '.join(FLEET_MODES)}"
            )
        if not (math.isfinite(self.deadline_ratio) and self.deadline_ratio > 0):
            raise ConfigurationError(
                f"deadline_ratio must be positive and finite, got {self.deadline_ratio}"
            )
        for name, values in (
            ("devices", self.devices),
            ("tasks", self.tasks),
            ("controllers", self.controllers),
        ):
            if not values:
                raise ConfigurationError(f"{name} must be non-empty")
        for task in self.tasks:
            if task not in MODEL_SIZES_MBIT:
                raise ConfigurationError(
                    f"no model size known for task {task!r}; available: "
                    f"{', '.join(sorted(MODEL_SIZES_MBIT))}"
                )
        if self.archetypes is not None and self.archetypes < 1:
            raise ConfigurationError(
                f"archetypes must be >= 1 or None, got {self.archetypes}"
            )
        if self.participants is not None and self.participants < 1:
            raise ConfigurationError(
                f"participants must be >= 1 or None, got {self.participants}"
            )
        if not (math.isfinite(self.over_selection) and self.over_selection >= 1.0):
            raise ConfigurationError(
                f"over_selection must be finite and >= 1, got {self.over_selection}"
            )
        if self.buffer_size < 1:
            raise ConfigurationError(
                f"buffer_size must be >= 1, got {self.buffer_size}"
            )
        if not (math.isfinite(self.staleness_exponent) and self.staleness_exponent >= 0):
            raise ConfigurationError(
                f"staleness_exponent must be finite and >= 0, got {self.staleness_exponent}"
            )
        if self.max_staleness is not None and self.max_staleness < 0:
            raise ConfigurationError(
                f"max_staleness must be >= 0 or None, got {self.max_staleness}"
            )
        if self.selector not in FLEET_SELECTORS:
            raise ConfigurationError(
                f"unknown selector {self.selector!r}; available: "
                f"{', '.join(FLEET_SELECTORS)}"
            )
        if not 0.0 <= self.chaos_fraction <= 1.0:
            raise ConfigurationError(
                f"chaos_fraction must lie in [0, 1], got {self.chaos_fraction}"
            )
        if self.edges is not None and self.edges < 1:
            raise ConfigurationError(
                f"edges must be >= 1 or None, got {self.edges}"
            )

    def effective_participants(self) -> int:
        """The per-round aggregation target, capped at the fleet size."""
        if self.participants is None:
            return self.n_clients
        return min(self.participants, self.n_clients)


def _client_chaos(
    spec: FleetSpec, client_id: str, device: str, task: str,
    controller: str, trace_seed: int,
) -> tuple[Optional[FaultSchedule], tuple[FaultSpec, ...]]:
    """Derive a chaotic client's (dropout schedule, stall windows).

    Whether a client is chaotic hashes from its id; the *windows* hash
    from its archetype (device/task/controller/trace seed), so archetype
    mates that are both chaotic share one campaign key and the trace
    gathering stays pooled.
    """
    if spec.chaos_fraction <= 0:
        return None, ()
    roll = _stable_seed(f"fleet-chaos/{spec.chaos_seed}/{client_id}") % 10_000
    if roll >= int(spec.chaos_fraction * 10_000):
        return None, ()
    from repro.faults.schedule import FaultSchedule

    schedule = FaultSchedule.generate(
        _stable_seed(
            f"fleet-fault/{spec.chaos_seed}/{device}/{task}/{controller}/{trace_seed}"
        ),
        spec.rounds,
        kinds=("client_dropout", "transport_stall"),
        n_faults=2,
        settle_rounds=min(1, max(spec.rounds - 1, 0)),
    )
    dropout = tuple(f for f in schedule.faults if f.kind == "client_dropout")
    stalls = tuple(f for f in schedule.faults if f.kind == "transport_stall")
    campaign_schedule = (
        FaultSchedule(faults=dropout, seed=schedule.seed) if dropout else None
    )
    return campaign_schedule, stalls


def client_slot(spec: FleetSpec, index: int) -> tuple[str, str, str, int, int, str]:
    """Client ``index``'s (device, task, controller, archetype, trace seed, id).

    Device, task and controller are assigned on interleaved cycles so
    every attribute mixes independently; ``archetypes`` pools clients
    onto ``index % archetypes`` shared trace seeds.  Pure index
    arithmetic: the fleet population and the decision service's request
    stream (:func:`repro.service.loadgen.fleet_requests`) both assign
    their clients here, and the stream builds no client object.
    """
    nd, nt = len(spec.devices), len(spec.tasks)
    device = spec.devices[index % nd]
    task = spec.tasks[(index // nd) % nt]
    controller = spec.controllers[(index // (nd * nt)) % len(spec.controllers)]
    archetype = index % spec.archetypes if spec.archetypes is not None else index
    return device, task, controller, archetype, spec.seed + archetype, f"client-{index:04d}"


def build_fleet_clients(spec: FleetSpec) -> list[FleetClient]:
    """Materialize the fleet population (traces still empty).

    Each client's archetype comes from :func:`client_slot`; sample counts
    and upload seeds hash from the client id, making each client's
    transport behaviour a pure function of the fleet spec.
    """
    from repro.federated.async_engine import FleetClient

    clients: list[FleetClient] = []
    for index in range(spec.n_clients):
        device, task, controller, _, trace_seed, client_id = client_slot(spec, index)
        campaign_schedule, stalls = _client_chaos(
            spec, client_id, device, task, controller, trace_seed
        )
        clients.append(
            FleetClient(
                client_id=client_id,
                index=index,
                device=device,
                task=task,
                controller=controller,
                trace_seed=trace_seed,
                n_samples=200 + _stable_seed(f"samples/{spec.seed}/{client_id}") % 801,
                model_size_mbit=MODEL_SIZES_MBIT[task],
                stall_windows=stalls,
                upload_seed=_stable_seed(f"upload/{spec.seed}/{client_id}"),
                fault_schedule=campaign_schedule,
            )
        )
    return clients


def campaign_spec_for(client: FleetClient, spec: FleetSpec) -> CampaignSpec:
    """The campaign producing this client's local-round trace.

    An adaptive ``spec.servertune`` rides onto every client's campaign
    key: the server controller reshapes each archetype's per-round
    deadline budget, so a tuned fleet must never reuse a static fleet's
    traces (or vice versa).
    """
    from repro.servertune.controllers import normalize_servertune
    from repro.sim.executor import CampaignSpec

    return CampaignSpec(
        device=client.device,
        task=client.task,
        controller=client.controller,
        deadline_ratio=spec.deadline_ratio,
        rounds=spec.rounds,
        seed=client.trace_seed,
        fault_schedule=client.fault_schedule,
        servertune=normalize_servertune(spec.servertune),
    )


def _warm_objective_tensors(specs: list[CampaignSpec]) -> None:
    """Precompute the objective tensor of every unique (device, task) pair.

    A fleet instantiates thousands of clients from a handful of
    archetypes; warming here means each calibration's O(|X|) surface is
    built exactly once in the parent process (forked workers inherit the
    cache) instead of lazily inside every campaign.
    """
    from repro.hardware.devices import get_device
    from repro.sim.runner import _task_by_name

    for device_name, task_name in sorted({(s.device, s.task) for s in specs}):
        task = _task_by_name(task_name)
        task.workload.performance_model(get_device(device_name)).objective_tensor()


def prepare_fleet(
    spec: FleetSpec,
    *,
    workers: Optional[int] = None,
    cache: Optional[PersistentCampaignCache] = None,
    progress: Optional[ProgressCallback] = None,
    use_cache: bool = True,
) -> list[FleetClient]:
    """Build the population and fill every client's trace.

    The executor dedups identical campaign keys, so pooled archetypes cost
    one simulation each regardless of fleet size; ``workers`` shards the
    unique campaigns over the process pool.  Run this *outside* any
    deterministic obs session meant for fleet traces — executor cache/cell
    events depend on worker count and cache state, the composition does
    not.
    """
    from repro.sim.executor import CampaignExecutor

    clients = build_fleet_clients(spec)
    specs = [campaign_spec_for(client, spec) for client in clients]
    _warm_objective_tensors(specs)
    executor = CampaignExecutor(workers=workers, cache=cache, progress=progress)
    report = executor.run(specs, use_cache=use_cache)
    for client, result in zip(clients, report.results):
        # Archetype mates share one campaign result, hence one record
        # list; composition only ever reads it.
        client.records = result.records
    return clients


def compose_fleet(
    spec: FleetSpec,
    clients: list[FleetClient],
    *,
    detail: str = "reports",
    shards: Optional[int] = None,
) -> FleetResult:
    """Run the federation engine over prepared traces (pure, serial).

    The engine only reads the clients' traces, so the same prepared
    population can be composed repeatedly — e.g. once per mode for a
    sync/semisync/async comparison.

    ``detail``/``shards`` tune *how* the composition executes, never
    *what* it computes: ``detail="stats"`` keeps per-round counters
    instead of per-report objects (O(rounds) memory at 100k+ clients),
    and ``shards`` parallelizes the trace-column build — both
    byte-identical to the serial default.  ``spec.edges``, by contrast,
    changes the aggregation arithmetic, which is why it lives on the
    spec.
    """
    from repro.federated.aggregation import FedAvg
    from repro.federated.async_engine import AsyncFederationEngine
    from repro.federated.hierarchy import HierarchySpec
    from repro.federated.selection import EnergyAwareSelector, RandomSelector
    from repro.federated.transport import LinkModel
    from repro.obs import runtime as obs
    from repro.servertune.controllers import (
        make_server_controller,
        normalize_servertune,
    )

    target = spec.effective_participants()
    if spec.mode == "semisync":
        selection_size = min(
            spec.n_clients, math.ceil(target * spec.over_selection)
        )
    else:
        selection_size = target
    tune = normalize_servertune(spec.servertune)
    # An adaptive controller's participation knob needs a sized selector
    # to act on, so a tuned fleet always builds one — even when the
    # static sizing would have selected everyone.
    sized = selection_size < spec.n_clients or tune is not None
    selector: Optional[ClientSelector] = None
    if spec.selector == "random" and sized:
        selector = RandomSelector(selection_size, seed=spec.seed)
    elif spec.selector == "energy" and sized:
        selector = EnergyAwareSelector(selection_size, seed=spec.seed)
    hierarchy = None if spec.edges is None else HierarchySpec(n_edges=spec.edges)
    if obs.enabled():
        if hierarchy is not None:
            obs.emit(
                "fleet.topology",
                edges=hierarchy.n_edges,
                clients=len(clients),
            )
        if shards is not None:
            obs.count("fleet.compose_shards", shards)
    fed_engine = AsyncFederationEngine(
        clients,
        mode=spec.mode,
        link=LinkModel(),
        selector=selector,
        aggregator=FedAvg(),
        target_reports=target if spec.mode == "semisync" else None,
        buffer_size=spec.buffer_size,
        staleness_exponent=spec.staleness_exponent,
        max_staleness=spec.max_staleness,
        controller=None if tune is None else make_server_controller(tune),
        detail=detail,
        hierarchy=hierarchy,
        shards=shards,
    )
    return fed_engine.run(spec.rounds)


def run_fleet(
    spec: FleetSpec,
    *,
    workers: Optional[int] = None,
    cache: Optional[PersistentCampaignCache] = None,
    progress: Optional[ProgressCallback] = None,
    use_cache: bool = True,
    detail: str = "reports",
    shards: Optional[int] = None,
) -> FleetResult:
    """Prepare and compose one fleet in a single call."""
    clients = prepare_fleet(
        spec, workers=workers, cache=cache, progress=progress, use_cache=use_cache
    )
    return compose_fleet(spec, clients, detail=detail, shards=shards)


def fleet_summary(spec: FleetSpec, result: FleetResult) -> dict[str, object]:
    """The JSON-stable scorecard of one fleet run (CLI report, goldens)."""
    summary: dict[str, object] = {
        "mode": result.mode,
        "clients": result.n_clients,
        "rounds": len(result.rounds),
        "aggregations": result.aggregations,
        "makespan": round(result.makespan, 6),
        "mean_round_latency": round(result.mean_round_latency, 6),
        "total_energy": round(result.total_energy, 6),
        "mean_staleness": round(result.mean_staleness, 6),
        "straggler_reports": result.straggler_reports,
        "cutoff_reports": result.cutoff_reports,
        "staleness_drops": result.staleness_drops,
        "dropout_rounds": result.dropout_rounds,
        "deadline_ratio": spec.deadline_ratio,
        "seed": spec.seed,
    }
    if spec.servertune is not None:
        # Only tuned fleets grow the key: static scorecards (and their
        # golden files) stay byte-identical to the pre-subsystem layout.
        summary["servertune"] = spec.servertune.controller
    if spec.edges is not None:
        # Same rule for hierarchy: flat scorecards keep the legacy layout.
        summary["edges"] = spec.edges
    return summary


def render_fleet_summary(summary: dict[str, object]) -> str:
    """Human-readable rendering of :func:`fleet_summary`."""
    lines = [f"{key:18s} : {value}" for key, value in summary.items()]
    return "\n".join(lines)


def fleet_report_from_trace(path: Union[str, pathlib.Path]) -> str:
    """Summarize the ``fleet.*``/``hierarchy.*`` activity of a recorded trace.

    The replay half of ``repro fleet run --trace``: event counts by kind,
    the run's configuration from ``fleet.start``, and the closing
    scorecard from ``fleet.end``.  Streams the trace — JSONL or columnar
    (:func:`repro.obs.columnar.iter_trace_events`) — keeping memory
    bounded by one chunk, not the file: a 100k-client trace carries
    millions of enqueue events and must never be materialized whole.
    """
    from collections import Counter

    from repro.obs.columnar import iter_trace_events
    from repro.obs.events import Event

    counts: Counter[str] = Counter()
    start: Optional[Event] = None
    end: Optional[Event] = None
    for event in iter_trace_events(path):
        if event.layer not in ("fleet", "hierarchy"):
            continue
        counts[event.kind] += 1
        if event.kind == "fleet.start" and start is None:
            start = event
        elif event.kind == "fleet.end":
            end = event
    if not counts:
        raise ConfigurationError(f"no fleet events found in {path}")
    lines = [f"Fleet trace: {path}", ""]
    for kind in sorted(counts):
        lines.append(f"  {kind:22s} {counts[kind]}")
    if start is not None:
        lines.append("")
        lines.append(
            "run: mode={mode} clients={clients} rounds={rounds}".format(
                mode=start.payload.get("mode"),
                clients=start.payload.get("clients"),
                rounds=start.payload.get("rounds"),
            )
        )
    if end is not None:
        for key in (
            "aggregations", "total_energy", "makespan", "mean_latency",
            "stragglers", "cutoffs", "staleness_drops", "dropouts",
        ):
            if key in end.payload:
                lines.append(f"  {key:18s} : {end.payload[key]}")
    return "\n".join(lines)

