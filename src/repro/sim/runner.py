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
from collections.abc import Callable
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
from repro.federated.task import FLTaskSpec, cifar10_vit, imagenet_resnet50, imdb_lstm
from repro.hardware.device import SimulatedDevice
from repro.hardware.devices import get_device
from repro.hardware.thermal import ThermalModel
from repro.sim.choices import CONTROLLER_NAMES
from repro.sim.mbo_cost import MBOCostModel

#: The canonical campaign cache key: a flat tuple of hashable scalars
#: (plus the optional frozen BoFLConfig).  Shared by the memo, the
#: persistent cache and the parallel executor.
CampaignKey = tuple[object, ...]


class CampaignCacheProtocol(Protocol):
    """Structural interface of the durable cache layer (get/put by key)."""

    def get(self, key: CampaignKey) -> Optional[CampaignResult]: ...

    def put(self, key: CampaignKey, result: CampaignResult) -> None: ...


#: Task registry by short name.
_TASKS: dict[str, Callable[[], FLTaskSpec]] = {
    "vit": cifar10_vit,
    "resnet50": imagenet_resnet50,
    "lstm": imdb_lstm,
}

#: The per-process memo.  Values are private copies: lookups return a
#: defensive deepcopy so callers can mutate their result (``_annotate``
#: does, and analysis code reasonably might) without corrupting the cache
#: for every later caller.
_CAMPAIGN_CACHE: dict[CampaignKey, CampaignResult] = {}

#: Optional durable layer underneath the in-memory memo (see
#: :mod:`repro.sim.cache`); ``None`` keeps the runner disk-free.
_PERSISTENT_CACHE: Optional[CampaignCacheProtocol] = None


def campaign_key(
    device_name: str,
    task_name: str,
    controller_name: str,
    deadline_ratio: float,
    rounds: int,
    seed: int,
    bofl_config: Optional[BoFLConfig] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    recovery_policy: Optional[RecoveryPolicy] = None,
    servertune: Optional[ServerTuneSpec] = None,
) -> CampaignKey:
    """The canonical cache key for one campaign.

    Shared by the in-memory memo, the persistent cache and the parallel
    executor so all three agree on what "the same campaign" means.  The
    fault schedule and recovery policy are part of the key: a faulted
    campaign must never collide with its fault-free twin (or with a
    differently-defended run of the same schedule).  Chaos arguments are
    normalized the same way :func:`run_campaign` executes them — an empty
    schedule keys as fault-free, and a missing policy keys as the default
    :class:`~repro.faults.recovery.RecoveryPolicy` — so every caller maps
    equivalent runs to the same key.  A servertune spec joins the key
    only when adaptive (an adaptive server controller reshapes the
    per-round deadlines); static specs normalize to ``None`` so they
    share keys with pre-subsystem campaigns.
    """
    if fault_schedule is not None and fault_schedule.is_empty:
        fault_schedule = None
    if fault_schedule is None:
        recovery_policy = None
    elif recovery_policy is None:
        recovery_policy = RecoveryPolicy()
    return (
        device_name,
        task_name,
        controller_name,
        float(deadline_ratio),
        int(rounds),
        int(seed),
        bofl_config,
        fault_schedule,
        recovery_policy,
        normalize_servertune(servertune),
    )


def clear_campaign_cache() -> None:
    """Drop memoized campaign results (tests use this for isolation)."""
    _CAMPAIGN_CACHE.clear()


def install_persistent_cache(cache: Optional[CampaignCacheProtocol]) -> None:
    """Install (or with ``None`` remove) the process-wide durable cache.

    ``cache`` is a :class:`repro.sim.cache.PersistentCampaignCache` (or any
    object with its ``get``/``put`` interface).  Once installed,
    :func:`run_campaign` falls back to it on in-memory misses and writes
    fresh results through to it.
    """
    global _PERSISTENT_CACHE
    _PERSISTENT_CACHE = cache


def get_persistent_cache() -> Optional[CampaignCacheProtocol]:
    """The currently installed durable cache, or ``None``."""
    return _PERSISTENT_CACHE


def prime_campaign_cache(key: CampaignKey, result: CampaignResult) -> None:
    """Insert an externally computed result into the in-memory memo.

    Used by the parallel executor to make results computed in worker
    processes visible to subsequent in-process :func:`run_campaign` calls.
    A private copy is stored, mirroring the fresh-result path.
    """
    _CAMPAIGN_CACHE[key] = copy.deepcopy(result)


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


def _task_by_name(name: str) -> FLTaskSpec:
    try:
        return _TASKS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown task {name!r}; available: {', '.join(sorted(_TASKS))}"
        ) from None


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
    chaos = fault_schedule is not None and not fault_schedule.is_empty
    if not chaos:
        fault_schedule = None
        recovery_policy = None
    elif recovery_policy is None:
        recovery_policy = RecoveryPolicy()
    servertune = normalize_servertune(servertune)
    key = campaign_key(
        device_name, task_name, controller_name, deadline_ratio, rounds, seed,
        bofl_config, fault_schedule, recovery_policy, servertune,
    )
    if use_cache:
        cached = _CAMPAIGN_CACHE.get(key)
        if cached is not None:
            _emit_cache_event("memory", device_name, task_name, controller_name, seed)
            return copy.deepcopy(cached)
        if _PERSISTENT_CACHE is not None:
            loaded = _PERSISTENT_CACHE.get(key)
            if loaded is not None:
                _CAMPAIGN_CACHE[key] = loaded  # repro: allow[process-boundary] -- guarded by use_cache; pool workers call run(use_cache=False)
                _emit_cache_event("disk", device_name, task_name, controller_name, seed)
                return copy.deepcopy(loaded)
        _emit_cache_event("miss", device_name, task_name, controller_name, seed)

    spec = get_device(device_name)
    task = _task_by_name(task_name)
    # Device noise is paired across controllers: seed depends on the
    # scenario, not the controller.  (zlib.crc32 is stable across processes,
    # unlike the builtin string hash.)
    scenario_seed = zlib.crc32(f"{device_name}/{task_name}/{seed}".encode()) % (2**31)
    # Thermal-trip faults need a thermal state to force; attaching the
    # model only when required keeps fault-free twins byte-identical to
    # historical runs.
    thermal = (
        ThermalModel()
        if fault_schedule is not None and fault_schedule.needs_thermal
        else None
    )
    device = SimulatedDevice(spec, task.workload, seed=scenario_seed, thermal=thermal)
    # Build (or attach to) the shared whole-space objective tensor up
    # front so the per-minibatch hot path is lookups from the first job.
    device.model.objective_tensor()
    controller = make_controller(
        controller_name, device, seed=seed, bofl_config=bofl_config
    )

    jobs = task.jobs_per_round(spec)
    t_min = device.model.latency(spec.space.max_configuration()) * jobs
    deadlines = UniformDeadlines(deadline_ratio).generate(
        t_min, rounds, seed=scenario_seed + 1
    )

    result = CampaignResult(
        controller=controller_name,
        device=device_name,
        task=task_name,
        deadline_ratio=deadline_ratio,
    )
    obs.emit(
        "campaign.start",
        t=device.clock.now,
        device=device_name,
        task=task_name,
        controller=controller_name,
        deadline_ratio=float(deadline_ratio),
        rounds=int(rounds),
        seed=int(seed),
        jobs_per_round=jobs,
    )
    engine = None
    if fault_schedule is not None and recovery_policy is not None:
        from repro.faults.engine import ChaosRoundEngine

        obs.emit(
            "chaos.schedule",
            t=device.clock.now,
            schedule=fault_schedule.to_dict(),
            policy=recovery_policy.to_dict(),
        )
        engine = ChaosRoundEngine(
            device, controller, fault_schedule, recovery_policy
        )
    tuner = make_server_controller(servertune) if servertune is not None else None
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
        _CAMPAIGN_CACHE[key] = copy.deepcopy(result)  # repro: allow[process-boundary] -- guarded by use_cache; pool workers call run(use_cache=False)
        if _PERSISTENT_CACHE is not None:
            _PERSISTENT_CACHE.put(key, result)
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


def _emit_cache_event(
    layer: str, device: str, task: str, controller: str, seed: int
) -> None:
    """Record one campaign-cache lookup outcome (memory/disk hit or miss)."""
    if obs.enabled():
        obs.emit(
            "campaign.cache",
            layer=layer,
            device=device,
            task=task,
            controller=controller,
            seed=int(seed),
        )
        obs.count(f"campaign.cache_{layer}")
