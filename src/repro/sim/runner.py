"""Campaign runner: one controller, one device, one task, N rounds.

Determinism and pairing: the deadline sequence and the device noise stream
are derived from (device, task, ratio, seed) only — *not* from the
controller — so BoFL, Performant and Oracle face identical rounds and
their energy curves are directly comparable, exactly as on a shared
physical testbed.
"""

from __future__ import annotations

import copy
import zlib
from dataclasses import dataclass
from typing import Optional, Protocol

from repro.core.config import BoFLConfig
from repro.core.base import PaceController
from repro.core.records import CampaignResult, ChaosSummary
from repro.errors import ConfigurationError
from repro.faults.recovery import RecoveryPolicy
from repro.faults.schedule import FaultSchedule
from repro.federated.deadlines import UniformDeadlines
from repro.obs import runtime as obs
from repro.servertune.controllers import (
    RoundFeedback,
    ServerTuneSpec,
    make_server_controller,
    normalize_servertune,
)
from repro.federated.task import task_by_name
from repro.hardware.device import SimulatedDevice
from repro.hardware.devices import get_device
from repro.hardware.thermal import ThermalModel
from repro.sim.choices import CONTROLLER_NAMES
from repro.sim.mbo_cost import MBOCostModel
from repro.types import require_positive, require_whole


class CampaignCacheProtocol(Protocol):
    """Structural interface of a durable cache layer (get/put by spec)."""

    def get(self, spec: CampaignSpec) -> Optional[CampaignResult]: ...

    def put(self, spec: CampaignSpec, result: CampaignResult) -> None: ...


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign's identity: every input that shapes its result.

    Mirrors the :func:`run_campaign` signature.  The spec is frozen and
    normalized on construction, so equivalent runs compare and hash
    equal: it is itself the in-process memo key, the executor's dedup key
    and the argument of the durable cache's token
    (:func:`repro.sim.cache.cache_token`).  Chaos inputs normalize the
    way the round loop executes them — an empty schedule is fault-free, a
    schedule without a policy runs under the default
    :class:`~repro.faults.recovery.RecoveryPolicy`, and a policy without
    a schedule defends nothing — and a static servertune spec normalizes
    to ``None``, so it shares keys (and traces) with pre-subsystem
    campaigns.
    """

    device: str
    task: str
    controller: str
    deadline_ratio: float
    rounds: int = 100
    seed: int = 0
    bofl_config: Optional[BoFLConfig] = None
    #: Optional chaos inputs: a fault schedule switches the campaign onto
    #: the chaos engine, defended by the recovery policy.
    fault_schedule: Optional[FaultSchedule] = None
    recovery_policy: Optional[RecoveryPolicy] = None
    #: Optional adaptive server controller above the round loop (it
    #: reshapes the per-round deadlines).
    servertune: Optional[ServerTuneSpec] = None

    def __post_init__(self) -> None:
        schedule, policy = self.fault_schedule, self.recovery_policy
        if schedule is not None and schedule.is_empty:
            schedule = None
        if schedule is None:
            policy = None
        elif policy is None:
            policy = RecoveryPolicy()
        set_field = object.__setattr__  # the spec is frozen
        set_field(self, "deadline_ratio", require_positive("deadline_ratio", self.deadline_ratio))
        set_field(self, "rounds", require_whole("rounds", self.rounds, minimum=1))
        set_field(self, "seed", require_whole("seed", self.seed))
        set_field(self, "fault_schedule", schedule)
        set_field(self, "recovery_policy", policy)
        set_field(self, "servertune", normalize_servertune(self.servertune))

    def label(self) -> str:
        base = (
            f"{self.device}/{self.task}/{self.controller}"
            f"/r{self.deadline_ratio:g}/n{self.rounds}/s{self.seed}"
        )
        if self.fault_schedule is not None:
            base += f"/chaos{len(self.fault_schedule)}"
        if self.servertune is not None:
            base += f"/tune-{self.servertune.controller}"
        return base

    def run(self, *, use_cache: bool = True) -> CampaignResult:
        """Execute this spec in-process through :func:`run_campaign`."""
        return run_campaign(
            self.device,
            self.task,
            self.controller,
            self.deadline_ratio,
            rounds=self.rounds,
            seed=self.seed,
            bofl_config=self.bofl_config,
            use_cache=use_cache,
            fault_schedule=self.fault_schedule,
            recovery_policy=self.recovery_policy,
            servertune=self.servertune,
        )


#: The per-process memo.  Values are private copies: lookups return a
#: defensive deepcopy so callers can mutate their result (``_annotate``
#: does, and analysis code reasonably might) without corrupting the cache
#: for every later caller.
_CAMPAIGN_CACHE: dict[CampaignSpec, CampaignResult] = {}

#: Optional durable layer underneath the in-memory memo (see
#: :mod:`repro.sim.cache`); ``None`` keeps the runner disk-free.
_PERSISTENT_CACHE: Optional[CampaignCacheProtocol] = None


def clear_campaign_cache() -> None:
    """Drop memoized campaign results (tests use this for isolation)."""
    _CAMPAIGN_CACHE.clear()


def install_persistent_cache(cache: Optional[CampaignCacheProtocol]) -> None:
    """Install (or with ``None`` remove) the process-wide durable cache.

    ``cache`` is a :class:`repro.sim.cache.PersistentCampaignCache` (or any
    object with its ``get``/``put`` interface).  Once installed, every
    lookup (:func:`run_campaign` and the executor alike) falls back to it
    on in-memory misses, and every fresh result is written through to it.
    """
    global _PERSISTENT_CACHE
    _PERSISTENT_CACHE = cache


def _durable_layers(
    extra: Optional[CampaignCacheProtocol],
) -> list[CampaignCacheProtocol]:
    """The distinct durable layers: ``extra`` first, then the installed one."""
    pair = (extra,) if extra is _PERSISTENT_CACHE else (extra, _PERSISTENT_CACHE)
    return [layer for layer in pair if layer is not None]


def lookup_campaign(
    spec: CampaignSpec, extra: Optional[CampaignCacheProtocol] = None
) -> tuple[Optional[CampaignResult], str]:
    """Resolve ``spec`` through the memo, then each durable layer.

    Returns a private copy of the result and the layer that served it
    ("memory" or "disk"), or ``(None, "miss")``.  A disk hit is memoized,
    so the next lookup in this process is served from memory.  ``extra``
    is a durable layer besides the installed one (an executor's own
    ``cache=``).
    """
    cached = _CAMPAIGN_CACHE.get(spec)
    if cached is not None:
        return copy.deepcopy(cached), "memory"
    for layer in _durable_layers(extra):
        loaded = layer.get(spec)
        if loaded is not None:
            _CAMPAIGN_CACHE[spec] = loaded  # repro: allow[process-boundary] -- guarded by use_cache; pool workers call run(use_cache=False)
            return copy.deepcopy(loaded), "disk"
    return None, "miss"


def store_campaign(
    spec: CampaignSpec,
    result: CampaignResult,
    extra: Optional[CampaignCacheProtocol] = None,
) -> None:
    """Write a fresh result through the memo (a private copy) and every
    durable layer :func:`lookup_campaign` reads."""
    _CAMPAIGN_CACHE[spec] = copy.deepcopy(result)  # repro: allow[process-boundary] -- guarded by use_cache; pool workers call run(use_cache=False)
    for layer in _durable_layers(extra):
        layer.put(spec, result)


def make_controller(
    name: str,
    device: SimulatedDevice,
    *,
    seed: int = 0,
    bofl_config: Optional[BoFLConfig] = None,
    with_mbo_cost: bool = True,
) -> PaceController:
    """Instantiate a controller by name, bound to ``device``."""
    mbo_cost = MBOCostModel(device.spec) if with_mbo_cost else None
    # Each branch loads only its own controller (the MBO ones import scipy).
    if name == "bofl":
        from repro.core.controller import BoFLController

        config = bofl_config if bofl_config is not None else BoFLConfig(seed=seed)
        return BoFLController(device, config, mbo_cost=mbo_cost)
    if name == "performant":
        from repro.baselines.performant import PerformantController

        return PerformantController(device)
    if name == "oracle":
        from repro.baselines.oracle import OracleController

        return OracleController(device)
    if name == "random_search":
        from repro.baselines.random_only import RandomSearchController

        config = bofl_config if bofl_config is not None else BoFLConfig(seed=seed)
        return RandomSearchController(device, config, mbo_cost=mbo_cost)
    if name == "linear_pace":
        from repro.baselines.linear_pace import LinearPaceController

        return LinearPaceController(device)
    if name == "ondemand":
        from repro.baselines.governor import OndemandGovernorController

        return OndemandGovernorController(device)
    raise ConfigurationError(
        f"unknown controller {name!r}; available: {', '.join(CONTROLLER_NAMES)}"
    )


def run_campaign(
    device_name: str,
    task_name: str,
    controller_name: str,
    deadline_ratio: float,
    *,
    rounds: int = 100,
    seed: int = 0,
    bofl_config: Optional[BoFLConfig] = None,
    use_cache: bool = True,
    fault_schedule: Optional[FaultSchedule] = None,
    recovery_policy: Optional[RecoveryPolicy] = None,
    servertune: Optional[ServerTuneSpec] = None,
) -> CampaignResult:
    """Run (or fetch from cache) one full campaign.

    Parameters mirror the paper's experiment grid: device in {agx, tx2},
    task in {vit, resnet50, lstm}, controller in
    :data:`CONTROLLER_NAMES`, ``deadline_ratio`` = ``T_max / T_min``.

    A non-empty ``fault_schedule`` switches the round loop onto the chaos
    engine (:mod:`repro.faults`): faults arm per round, the
    ``recovery_policy`` (default :class:`~repro.faults.recovery.RecoveryPolicy`)
    defends the controller, and the result carries a
    :class:`~repro.core.records.ChaosSummary`.  The deadline sequence and
    the device noise stream stay identical to the fault-free twin, so the
    two runs are directly comparable round by round.

    An adaptive ``servertune`` spec puts a server-side controller above
    the round loop (:mod:`repro.servertune`): each round's deadline is
    scaled by the controller's current ``deadline_scale`` knob, updated
    from the previous rounds' miss/energy feedback, and the controller's
    ``halt`` knob can end the campaign early.  Static specs are
    normalized away, keeping those runs byte-identical to pre-subsystem
    campaigns.
    """
    campaign = CampaignSpec(
        device_name, task_name, controller_name, deadline_ratio, rounds, seed,
        bofl_config, fault_schedule, recovery_policy, servertune,
    )
    if use_cache:
        cached, layer = lookup_campaign(campaign)
        _emit_cache_event(layer, campaign)
        if cached is not None:
            return cached

    spec = get_device(device_name)
    task = task_by_name(task_name)
    # Device noise is paired across controllers: seed depends on the
    # scenario, not the controller.  (zlib.crc32 is stable across processes,
    # unlike the builtin string hash.)
    scenario_seed = zlib.crc32(f"{device_name}/{task_name}/{campaign.seed}".encode()) % (2**31)
    # Thermal-trip faults need a thermal state to force; attaching the
    # model only when required keeps fault-free twins byte-identical to
    # historical runs.
    schedule, policy = campaign.fault_schedule, campaign.recovery_policy
    thermal = (
        ThermalModel() if schedule is not None and schedule.needs_thermal else None
    )
    device = SimulatedDevice(spec, task.workload, seed=scenario_seed, thermal=thermal)
    # Build (or attach to) the shared whole-space objective tensor up
    # front so the per-minibatch hot path is lookups from the first job.
    device.model.objective_tensor()
    controller = make_controller(
        controller_name, device, seed=campaign.seed, bofl_config=bofl_config
    )

    jobs = task.jobs_per_round(spec)
    t_min = device.model.latency(spec.space.max_configuration()) * jobs
    deadlines = UniformDeadlines(campaign.deadline_ratio).generate(
        t_min, campaign.rounds, seed=scenario_seed + 1
    )

    result = CampaignResult(
        controller=controller_name,
        device=device_name,
        task=task_name,
        deadline_ratio=campaign.deadline_ratio,
    )
    obs.emit(
        "campaign.start",
        t=device.clock.now,
        device=device_name,
        task=task_name,
        controller=controller_name,
        deadline_ratio=campaign.deadline_ratio,
        rounds=campaign.rounds,
        seed=campaign.seed,
        jobs_per_round=jobs,
    )
    engine = None
    if schedule is not None and policy is not None:
        from repro.faults.engine import ChaosRoundEngine

        obs.emit(
            "chaos.schedule",
            t=device.clock.now,
            schedule=schedule.to_dict(),
            policy=policy.to_dict(),
        )
        engine = ChaosRoundEngine(device, controller, schedule, policy)
    tune = campaign.servertune
    tuner = make_server_controller(tune) if tune is not None else None
    cumulative_energy = 0.0
    cumulative_elapsed = 0.0
    for index, deadline in enumerate(deadlines):
        if tuner is not None:
            knobs = tuner.knobs_for(index)
            if knobs.halt:
                # The rounds-budget knob: the server stops paying for
                # rounds that no longer improve its objective.
                obs.emit(
                    "servertune.halt",
                    t=device.clock.now,
                    round=index,
                    controller=tuner.name,
                )
                obs.count("servertune.halts")
                break
            if knobs.deadline_scale != 1.0:
                scaled = deadline * knobs.deadline_scale
                obs.emit(
                    "servertune.override",
                    t=device.clock.now,
                    context="campaign",
                    round=index,
                    controller=tuner.name,
                    base_deadline=deadline,
                    deadline=scaled,
                    scale=knobs.deadline_scale,
                )
                obs.count("servertune.overrides")
                deadline = scaled
        if engine is not None:
            record = engine.run_round(index, jobs, deadline)
        else:
            record = controller.run_round(jobs, deadline)
        result.records.append(record)
        if tuner is not None:
            cumulative_energy += record.energy
            cumulative_elapsed += record.elapsed
            tuner.observe(
                RoundFeedback(
                    round_index=index,
                    participants=1,
                    buffered=0 if record.missed else 1,
                    stragglers=1 if record.missed else 0,
                    energy=record.energy,
                    latency=record.elapsed,
                    total_energy=cumulative_energy,
                    makespan=cumulative_elapsed,
                )
            )
    if engine is not None:
        engine.finish()
        result.chaos = ChaosSummary(
            injected=tuple(engine.log.injected),
            checkpoints=engine.log.checkpoints,
            restores=engine.log.restores,
            escalations=engine.log.escalations,
            dropped_rounds=engine.log.dropped_rounds,
            lost_reports=engine.log.lost_reports,
        )

    _annotate(result, controller)
    obs.emit(
        "campaign.end",
        t=device.clock.now,
        device=device_name,
        task=task_name,
        controller=controller_name,
        training_energy=result.training_energy,
        mbo_energy=result.mbo_energy,
        total_energy=result.total_energy,
        missed_rounds=result.missed_rounds,
        explored_total=result.explored_total,
    )
    if use_cache:
        store_campaign(campaign, result)
    return result


def _annotate(result: CampaignResult, controller: PaceController) -> None:
    """Fill retrospective fields (final front, Table 3 Pareto counts)."""
    from repro.baselines.oracle import OracleController
    from repro.core.controller import BoFLController

    if isinstance(controller, BoFLController):
        front_configs, front_values = controller.store.pareto_set()
        result.final_front = [(float(t), float(e)) for t, e in front_values]
        front_set = set(front_configs)
        for record in result.records:
            record.explored_on_final_front = sum(
                1 for c in record.explored if c in front_set
            )
        if obs.enabled():
            # The trace-side Table 3 derivation needs the final front's
            # *configurations*, not just its objective values.
            obs.emit(
                "campaign.front",
                t=controller.device.clock.now,
                configs=[list(c.as_tuple()) for c in front_configs],
                values=[[float(t), float(e)] for t, e in front_values],
            )
    elif isinstance(controller, OracleController):
        result.final_front = [
            (float(t), float(e)) for t, e in controller.pareto_values
        ]


def _emit_cache_event(layer: str, spec: CampaignSpec) -> None:
    """Record one campaign-cache lookup outcome (memory/disk hit or miss)."""
    if obs.enabled():
        obs.emit(
            "campaign.cache",
            layer=layer,
            device=spec.device,
            task=spec.task,
            controller=spec.controller,
            seed=spec.seed,
        )
        obs.count(f"campaign.cache_{layer}")
