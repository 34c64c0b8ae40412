"""Parallel campaign execution engine.

Every evaluation artifact in this repo is a projection of a campaign grid
— (device x task x controller x deadline-ratio x seed) — and each cell is
an independent, deterministic simulation.  This module fans a grid out
over a :class:`concurrent.futures.ProcessPoolExecutor` while preserving
the paired-determinism guarantee: a work unit is described declaratively
by a :class:`~repro.sim.runner.CampaignSpec` and each worker derives its
scenario seed exactly as the serial :func:`repro.sim.runner.run_campaign`
path does, so parallel and serial runs produce identical
:class:`CampaignResult` objects.

Cache layering, keyed by the spec itself and walked by the runner's
:func:`~repro.sim.runner.lookup_campaign` /
:func:`~repro.sim.runner.store_campaign` (the same two functions
:func:`~repro.sim.runner.run_campaign` uses):

1. the in-process memo in :mod:`repro.sim.runner` ("memory");
2. the executor's own ``cache=`` and the installed durable cache, e.g. a
   :class:`~repro.sim.cache.PersistentCampaignCache` ("disk");
3. the campaign is computed, in a worker process ("computed") or in-process
   when ``workers=1`` ("inline"), and the parent writes the result through
   every layer.

Each distinct spec is looked up, or computed, once per :meth:`run`;
duplicate specs share one result object, whichever layer served it.

Per-campaign :class:`CampaignTiming` records (source + wall seconds) make
long grids observable; pass a ``progress`` callback to stream them.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Optional

from repro.core.config import BoFLConfig
from repro.core.records import CampaignResult
from repro.errors import ConfigurationError
from repro.obs import runtime as obs
from repro.sim.cache import PersistentCampaignCache
from repro.sim.runner import (
    CampaignSpec,
    lookup_campaign,
    run_campaign,
    store_campaign,
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
    return run_campaign(
        spec.device,
        spec.task,
        spec.controller,
        spec.deadline_ratio,
        rounds=spec.rounds,
        seed=spec.seed,
        bofl_config=spec.bofl_config,
        use_cache=False,
        fault_schedule=spec.fault_schedule,
        recovery_policy=spec.recovery_policy,
        servertune=spec.servertune,
    )


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

        #: spec -> its indices: each distinct spec is looked up, or
        #: computed, once, and its indices share one result object.
        groups: dict[CampaignSpec, list[int]] = {}
        for index, spec in enumerate(specs):
            groups.setdefault(spec, []).append(index)
        #: spec -> indices still needing a result.
        pending: dict[CampaignSpec, list[int]] = {}
        for spec, indices in groups.items():
            hit, source = lookup_campaign(spec, self.cache) if use_cache else (None, "miss")
            if hit is None:
                pending[spec] = indices
                continue
            for index in indices:
                finish(index, hit, 0.0, source)
                source = "memory"  # later duplicates share the first one's hit

        def complete(
            spec: CampaignSpec, result: CampaignResult, seconds: float, source: str
        ) -> None:
            if use_cache:
                store_campaign(spec, result, self.cache)
            for index in pending[spec]:
                finish(index, result, seconds, source)

        if pending:
            if self.workers == 1:
                self._run_inline(pending, complete)
            else:
                self._run_pool(pending, complete)

        ordered_timings = [timings[i] for i in sorted(timings)]
        self.timings.extend(ordered_timings)
        report = ExecutionReport(
            results=[results[i] for i in range(total)],
            timings=ordered_timings,
            workers=self.workers,
            wall_seconds=time.perf_counter() - started,
        )
        return report

    def _run_inline(
        self,
        pending: dict[CampaignSpec, list[int]],
        complete: Callable[[CampaignSpec, CampaignResult, float, str], None],
    ) -> None:
        for spec in pending:
            t0 = time.perf_counter()
            result = _compute_spec(spec)
            complete(spec, result, time.perf_counter() - t0, "inline")

    def _run_pool(
        self,
        pending: dict[CampaignSpec, list[int]],
        complete: Callable[[CampaignSpec, CampaignResult, float, str], None],
    ) -> None:
        # Imported here: the process pool loads ``multiprocessing``,
        # which a ``workers=1`` run never needs.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self.workers, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures: dict[Future[CampaignResult], tuple[CampaignSpec, float]] = {
                pool.submit(_compute_spec, spec): (spec, time.perf_counter())
                for spec in pending
            }
            outstanding = set(futures)
            while outstanding:
                completed, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in completed:
                    spec, t0 = futures[future]
                    result = future.result()
                    complete(spec, result, time.perf_counter() - t0, "computed")
