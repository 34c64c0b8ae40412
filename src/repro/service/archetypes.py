"""Archetype profiles: the per-(device, task) candidate pool a decision needs.

A pace decision reduces to the Eqn. 1 ILP over a Pareto candidate set.
For a fleet-scale service the candidate set is an *archetype* property —
every AGX-class client running ViT shares one calibrated ``T(x)/E(x)``
surface (see :class:`repro.hardware.perfmodel.ObjectiveTensor`) — so the
profile is built once per (device, task) and shared by every request,
exactly like the fleet layer pools clients onto archetype trace seeds.

Two profile sources exist:

* :meth:`ArchetypeProfile.from_surfaces` — the offline-profiling view
  (the Oracle baseline's candidate pool): exact Pareto set of the
  whole-space objective tensor.  This is what the long-running service
  uses by default.
* :meth:`ArchetypeProfile.from_candidates` — explicit points, e.g. a
  :class:`~repro.core.controller.BoFLController`'s learned candidates via
  :meth:`~repro.core.controller.BoFLController.decision_candidates`, so a
  device that ran BoFL locally can be served plans from its own
  measurements instead of the analytic surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bayesopt.pareto import pareto_mask
from repro.core.exploitation import ExploitationPlanner
from repro.errors import ConfigurationError, InfeasibleError
from repro.federated.task import task_by_name
from repro.hardware.devices import get_device
from repro.types import DvfsConfiguration, Schedule, ScheduleEntry, Seconds

@dataclass(frozen=True)
class ArchetypeProfile:
    """The decision-relevant summary of one (device, task) archetype.

    Candidate configurations with their per-job latency/energy, plus the
    guardian anchor ``x_max`` — everything the ILP planner and the
    fallback path need.  Arrays are aligned with ``configs``.
    """

    device: str
    task: str
    configs: tuple[DvfsConfiguration, ...]
    latencies: np.ndarray
    energies: np.ndarray
    x_max: DvfsConfiguration
    t_xmax: Seconds
    e_xmax: float
    #: Default jobs-per-round for this archetype's workload (``W = E x N``).
    jobs_per_round: int

    @property
    def n_candidates(self) -> int:
        return len(self.configs)

    @classmethod
    def from_candidates(
        cls,
        device: str,
        task: str,
        configs: tuple[DvfsConfiguration, ...],
        latencies: np.ndarray,
        energies: np.ndarray,
        x_max: DvfsConfiguration,
        jobs_per_round: int = 1,
    ) -> "ArchetypeProfile":
        """Build a profile from explicit candidate points.

        The fastest candidate is treated as the fallback anchor when
        ``x_max`` itself is not among the candidates (a learned store may
        not have measured it under the exact same noise window).
        """
        if len(configs) == 0:
            raise ConfigurationError("a profile needs at least one candidate")
        latencies = np.asarray(latencies, dtype=float)
        energies = np.asarray(energies, dtype=float)
        if x_max in configs:
            anchor = configs.index(x_max)
        else:
            anchor = int(np.argmin(latencies))
        return cls(
            device=device,
            task=task,
            configs=tuple(configs),
            latencies=latencies,
            energies=energies,
            x_max=configs[anchor],
            t_xmax=float(latencies[anchor]),
            e_xmax=float(energies[anchor]),
            jobs_per_round=jobs_per_round,
        )

    @classmethod
    def from_surfaces(cls, device: str, task: str) -> "ArchetypeProfile":
        """Offline-profiling view: exact Pareto set of the analytic surface.

        The same construction as the Oracle baseline — whole-space
        ``T(x)/E(x)`` tensor, Pareto mask, plus ``x_max`` guaranteed in
        the pool so the ILP stays feasible whenever the deadline is
        meetable at all.  Candidates are taken by flat index, so only the
        kept points become configuration objects.  ``x_max`` is the last
        index (every unit at its top clock); when it is dominated it is
        appended, so it is always the last candidate.
        """
        spec = get_device(device)
        task_spec = task_by_name(task)
        model = task_spec.workload.performance_model(spec)
        tensor = model.objective_tensor()
        values = np.stack([tensor.latencies, tensor.energies], axis=1)
        mask = pareto_mask(values)
        indices = np.flatnonzero(mask)
        x_max_index = len(values) - 1
        if not mask[x_max_index]:
            indices = np.append(indices, x_max_index)
        kept = values[indices]
        configs = tuple(spec.space.configurations_at(indices))
        return cls(
            device=device,
            task=task,
            configs=configs,
            latencies=kept[:, 0].copy(),
            energies=kept[:, 1].copy(),
            x_max=configs[-1],
            t_xmax=float(kept[-1, 0]),
            e_xmax=float(kept[-1, 1]),
            jobs_per_round=task_spec.jobs_per_round(spec),
        )

    # -- planning ----------------------------------------------------------

    def plan(
        self, jobs: int, deadline: Seconds, safety_margin: float = 0.02
    ) -> Schedule:
        """Solve the Eqn. 1 ILP over this profile's candidates.

        Raises :class:`~repro.errors.InfeasibleError` when not even the
        fastest candidate meets the deadline; callers degrade to
        :meth:`fallback_plan`.
        """
        planner = ExploitationPlanner(safety_margin)
        return planner.plan_from_points(
            list(self.configs), self.latencies, self.energies, jobs, deadline
        )

    def fallback_plan(self, jobs: int) -> Schedule:
        """The graceful-degradation plan: every job at ``x_max``.

        Always constructible without an ILP solve; the expected totals
        come straight from the anchor point.
        """
        entry = ScheduleEntry(self.x_max, jobs)
        return Schedule(
            entries=(entry,),
            expected_latency=self.t_xmax * jobs,
            expected_energy=self.e_xmax * jobs,
        )


#: Process-wide profile cache, keyed by (device, task) — the service and
#: the load generator share builds, mirroring the perfmodel tensor cache.
_PROFILE_CACHE: dict[tuple[str, str], ArchetypeProfile] = {}


def get_profile(device: str, task: str) -> ArchetypeProfile:
    """The cached offline-profiling archetype profile for (device, task)."""
    key = (device, task)
    cached = _PROFILE_CACHE.get(key)
    if cached is not None:
        return cached
    profile = ArchetypeProfile.from_surfaces(device, task)
    _PROFILE_CACHE[key] = profile
    return profile


def clear_profile_cache() -> None:
    """Drop every cached profile (tests and recalibration)."""
    _PROFILE_CACHE.clear()


def plan_or_fallback(
    profile: ArchetypeProfile,
    jobs: int,
    deadline: Seconds,
    safety_margin: float = 0.02,
) -> tuple[Schedule, bool]:
    """Plan via the ILP, degrading to the ``x_max`` sprint when infeasible.

    Returns ``(schedule, fell_back)``.
    """
    try:
        return profile.plan(jobs, deadline, safety_margin), False
    except InfeasibleError:
        return profile.fallback_plan(jobs), True


__all__ = [
    "ArchetypeProfile",
    "clear_profile_cache",
    "get_profile",
    "plan_or_fallback",
    "task_by_name",
]
