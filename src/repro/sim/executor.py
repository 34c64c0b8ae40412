"""Parallel campaign execution engine.

Every evaluation artifact in this repo is a projection of a campaign grid
— (device x task x controller x deadline-ratio x seed) — and each cell is
an independent, deterministic simulation.  This module fans a grid out
over a :class:`concurrent.futures.ProcessPoolExecutor` while preserving
the paired-determinism guarantee: a work unit is described declaratively
by :class:`CampaignSpec` and each worker derives its scenario seed exactly
as the serial :func:`repro.sim.runner.run_campaign` path does, so parallel
and serial runs produce identical :class:`CampaignResult` objects.

Cache layering (checked in order, all keyed by
:func:`repro.sim.runner.campaign_key`):

1. the in-process memo in :mod:`repro.sim.runner` ("memory");
2. the optional durable :class:`~repro.sim.cache.PersistentCampaignCache`
   ("disk");
3. the campaign is computed, in a worker process ("computed") or in-process
   when ``workers=1`` ("inline"), and the parent writes the result through
   every layer.

Each distinct key is looked up, or computed, once per :meth:`run`;
duplicate specs share one result object, whichever layer served it.

Per-campaign :class:`CampaignTiming` records (source + wall seconds) make
long grids observable; pass a ``progress`` callback to stream them.
"""

from __future__ import annotations

import copy
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Optional

from repro.core.config import BoFLConfig
from repro.core.records import CampaignResult
from repro.errors import ConfigurationError
from repro.faults.recovery import RecoveryPolicy
from repro.faults.schedule import FaultSchedule
from repro.obs import runtime as obs
from repro.servertune.controllers import ServerTuneSpec
from repro.sim import runner as _runner
from repro.sim.cache import PersistentCampaignCache
from repro.sim.runner import (
    CampaignCacheProtocol,
    CampaignKey,
    campaign_key,
    prime_campaign_cache,
    run_campaign,
)

if TYPE_CHECKING:
    from concurrent.futures import Future

#: Hard ceiling on worker processes: beyond the physical core count the
#: simulation is purely CPU-bound and extra workers only add contention.
MAX_WORKERS = 32


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` request: ``None`` means "all cores", bounded."""
    available = os.cpu_count() or 1
    if workers is None:
        return max(1, min(available, MAX_WORKERS))
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return min(workers, MAX_WORKERS)


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative work unit of a campaign grid.

    Mirrors the :func:`repro.sim.runner.run_campaign` signature; the
    executor never runs anything a plain serial call could not.
    """

    device: str
    task: str
    controller: str
    deadline_ratio: float
    rounds: int = 100
    seed: int = 0
    bofl_config: Optional[BoFLConfig] = None
    #: Optional chaos inputs: a fault schedule switches the cell onto the
    #: chaos engine; both participate in the cache key.
    fault_schedule: Optional[FaultSchedule] = None
    recovery_policy: Optional[RecoveryPolicy] = None
    #: Optional adaptive server controller above the round loop; part of
    #: the cache key (it reshapes the per-round deadlines).
    servertune: Optional[ServerTuneSpec] = None

    def key(self) -> CampaignKey:
        return campaign_key(
            self.device, self.task, self.controller, self.deadline_ratio,
            self.rounds, self.seed, self.bofl_config,
            self.fault_schedule, self.recovery_policy, self.servertune,
        )

    def label(self) -> str:
        base = (
            f"{self.device}/{self.task}/{self.controller}"
            f"/r{self.deadline_ratio:g}/n{self.rounds}/s{self.seed}"
        )
        if self.fault_schedule is not None and not self.fault_schedule.is_empty:
            base += f"/chaos{len(self.fault_schedule)}"
        if self.servertune is not None and not self.servertune.is_static:
            base += f"/tune-{self.servertune.controller}"
        return base

    def run(self, *, use_cache: bool = True) -> CampaignResult:
        """Execute this spec in-process through the ordinary runner path."""
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


def expand_grid(
    devices: Sequence[str] = ("agx",),
    tasks: Sequence[str] = ("vit", "resnet50", "lstm"),
    controllers: Sequence[str] = ("bofl", "performant", "oracle"),
    ratios: Sequence[float] = (2.0,),
    seeds: Sequence[int] = (0,),
    *,
    rounds: int = 100,
    bofl_config: Optional[BoFLConfig] = None,
) -> list[CampaignSpec]:
    """The full cross product as an ordered list of specs.

    ``bofl_config`` is attached only to ``bofl``-family controllers (the
    baselines ignore it, and keeping it off their keys maximizes cache
    sharing — exactly as :func:`repro.sim.sweep.sweep_campaign` does).
    """
    specs = []
    for device in devices:
        for task in tasks:
            for ratio in ratios:
                for seed in seeds:
                    for controller in controllers:
                        config = (
                            bofl_config
                            if controller in ("bofl", "random_search")
                            else None
                        )
                        specs.append(
                            CampaignSpec(
                                device=device,
                                task=task,
                                controller=controller,
                                deadline_ratio=float(ratio),
                                rounds=rounds,
                                seed=seed,
                                bofl_config=config,
                            )
                        )
    return specs


@dataclass(frozen=True)
class CampaignTiming:
    """How one grid cell was satisfied and how long it took."""

    spec: CampaignSpec
    seconds: float
    #: "memory" | "disk" | "computed" | "inline" (workers=1 fallback).
    source: str

    def render(self) -> str:
        return f"{self.spec.label():44s} {self.seconds:8.3f}s  [{self.source}]"


#: Progress callback signature: called once per completed grid cell, in
#: completion order, with (done_count, total_count, timing).
ProgressCallback = Callable[[int, int, CampaignTiming], None]


def _compute_spec(spec: CampaignSpec) -> CampaignResult:
    """Compute one campaign from scratch, inline or in a pool worker.

    ``use_cache=False`` skips the runner's own lookup and write-through:
    the executor has already missed every layer and stores the result
    itself, and a worker's memo would die with the process anyway.
    """
    return spec.run(use_cache=False)


@dataclass
class ExecutionReport:
    """The outcome of one :meth:`CampaignExecutor.run` call."""

    results: list[CampaignResult]
    timings: list[CampaignTiming]
    workers: int
    wall_seconds: float

    @property
    def computed(self) -> int:
        return sum(1 for t in self.timings if t.source in ("computed", "inline"))

    @property
    def from_cache(self) -> int:
        return sum(1 for t in self.timings if t.source in ("memory", "disk"))

    def render(self) -> str:
        lines = [t.render() for t in self.timings]
        lines.append(
            f"{len(self.timings)} campaigns ({self.computed} computed, "
            f"{self.from_cache} cached) in {self.wall_seconds:.2f}s "
            f"on {self.workers} worker(s)"
        )
        return "\n".join(lines)


class CampaignExecutor:
    """Fan campaign grids out over worker processes, cache-aware.

    ``workers=1`` computes in-process — no subprocesses, no pickling —
    which unit tests rely on for determinism and debuggability.  Any
    higher count uses a process pool; both store results the same way.
    Duplicate specs within one submission are looked up or computed once
    and share one result object.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        cache: Optional[PersistentCampaignCache] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.cache = cache
        self.progress = progress
        #: Timings accumulated across every run() on this executor.
        self.timings: list[CampaignTiming] = []

    # -- cache layers --------------------------------------------------------

    def _layers(self) -> list[CampaignCacheProtocol]:
        """The distinct durable layers: this executor's, then the installed one."""
        layers = (self.cache, _runner.get_persistent_cache())
        return list({id(c): c for c in layers if c is not None}.values())

    def _lookup(self, key: CampaignKey) -> tuple[Optional[CampaignResult], str]:
        cached = _runner._CAMPAIGN_CACHE.get(key)
        if cached is not None:
            # Defensive copy: the memo's value is private (see runner).
            return copy.deepcopy(cached), "memory"
        for layer in self._layers():
            loaded = layer.get(key)
            if loaded is not None:
                prime_campaign_cache(key, loaded)
                return loaded, "disk"
        return None, "miss"

    def _store(self, key: CampaignKey, result: CampaignResult) -> None:
        prime_campaign_cache(key, result)
        for layer in self._layers():
            layer.put(key, result)

    # -- execution -----------------------------------------------------------

    def run(
        self, specs: Sequence[CampaignSpec], *, use_cache: bool = True
    ) -> ExecutionReport:
        """Execute every spec; results come back in submission order."""
        specs = list(specs)
        started = time.perf_counter()
        results: dict[int, CampaignResult] = {}
        timings: dict[int, CampaignTiming] = {}
        done_count = 0
        total = len(specs)

        def finish(index: int, result: CampaignResult, seconds: float, source: str) -> None:
            nonlocal done_count
            results[index] = result
            timing = CampaignTiming(spec=specs[index], seconds=seconds, source=source)
            timings[index] = timing
            done_count += 1
            if obs.enabled():
                obs.emit(
                    "executor.cell",
                    label=timing.spec.label(),
                    seconds=seconds,
                    source=source,
                    workers=self.workers,
                )
                obs.count(f"executor.cells_{source}")
                obs.observe("executor.cell_seconds", seconds)
            if self.progress is not None:
                self.progress(done_count, total, timing)

        #: key -> spec indices still needing a result (dedup).
        pending: dict[CampaignKey, list[int]] = {}
        #: key -> the result its first index found in a cache layer; later
        #: indices share that object instead of copying the memo again.
        served: dict[CampaignKey, CampaignResult] = {}
        for index, spec in enumerate(specs):
            key = spec.key()
            if use_cache and key not in pending:
                if key in served:
                    finish(index, served[key], 0.0, "memory")
                    continue
                hit, source = self._lookup(key)
                if hit is not None:
                    served[key] = hit
                    finish(index, hit, 0.0, source)
                    continue
            pending.setdefault(key, []).append(index)

        def complete(
            key: CampaignKey, result: CampaignResult, seconds: float, source: str
        ) -> None:
            if use_cache:
                self._store(key, result)
            for index in pending[key]:
                finish(index, result, seconds, source)

        if pending:
            if self.workers == 1:
                self._run_inline(pending, specs, complete)
            else:
                self._run_pool(pending, specs, complete)

        ordered_timings = [timings[i] for i in sorted(timings)]
        self.timings.extend(ordered_timings)
        report = ExecutionReport(
            results=[results[i] for i in range(total)],
            timings=ordered_timings,
            workers=self.workers,
            wall_seconds=time.perf_counter() - started,
        )
        return report

    def run_one(self, spec: CampaignSpec, *, use_cache: bool = True) -> CampaignResult:
        """Convenience wrapper: execute a single spec."""
        return self.run([spec], use_cache=use_cache).results[0]

    def _run_inline(
        self,
        pending: dict[CampaignKey, list[int]],
        specs: Sequence[CampaignSpec],
        complete: Callable[[CampaignKey, CampaignResult, float, str], None],
    ) -> None:
        for key, indices in pending.items():
            t0 = time.perf_counter()
            result = _compute_spec(specs[indices[0]])
            complete(key, result, time.perf_counter() - t0, "inline")

    def _run_pool(
        self,
        pending: dict[CampaignKey, list[int]],
        specs: Sequence[CampaignSpec],
        complete: Callable[[CampaignKey, CampaignResult, float, str], None],
    ) -> None:
        # Imported here: the process pool loads ``multiprocessing``,
        # which a ``workers=1`` run never needs.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self.workers, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures: dict[Future[CampaignResult], tuple[CampaignKey, float]] = {}
            for key, indices in pending.items():
                futures[pool.submit(_compute_spec, specs[indices[0]])] = (
                    key, time.perf_counter(),
                )
            outstanding = set(futures)
            while outstanding:
                completed, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in completed:
                    key, t0 = futures[future]
                    result = future.result()
                    complete(key, result, time.perf_counter() - t0, "computed")


def execute_campaigns(
    specs: Sequence[CampaignSpec],
    *,
    workers: Optional[int] = None,
    cache: Optional[PersistentCampaignCache] = None,
    progress: Optional[ProgressCallback] = None,
    use_cache: bool = True,
) -> ExecutionReport:
    """One-shot helper: build an executor, run the grid, return the report."""
    executor = CampaignExecutor(workers=workers, cache=cache, progress=progress)
    return executor.run(specs, use_cache=use_cache)
