"""The Oracle baseline: exhaustive offline profiling + pure exploitation.

"In the Oracle design, we profile T and E over the whole configuration
space offline, and only run exploitation over the FL training rounds to
achieve optimal energy usage.  Note that Oracle can not be achieved in
practice as it requires long-lasting offline profiling." (§6.1)

The Oracle reads the device's ground-truth surfaces directly — the
simulation counterpart of that offline profiling pass — extracts the exact
Pareto set, and solves the Eqn. 1 schedule ILP for every round.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bayesopt.pareto import pareto_mask
from repro.core.base import JobCallback, PaceController
from repro.core.exploitation import ExploitationPlanner
from repro.core.records import RoundRecord
from repro.errors import InfeasibleError
from repro.hardware.device import SimulatedDevice
from repro.types import DvfsConfiguration, RoundBudget, Schedule, Seconds


class OracleController(PaceController):
    """Exploits the exact Pareto set from the first round onward."""

    name = "oracle"

    def __init__(self, device: SimulatedDevice, safety_margin: float = 0.01) -> None:
        super().__init__(device)
        self.planner = ExploitationPlanner(safety_margin)
        # Offline profiling pass: the whole space, noise-free.
        latencies, energies = device.model.profile_space()
        values = np.stack([latencies, energies], axis=1)
        mask = pareto_mask(values)
        self.pareto_configs: list[DvfsConfiguration] = device.space.configurations_at(
            np.flatnonzero(mask)
        )
        self.pareto_values = values[mask]
        self._x_max = device.space.max_configuration()

    @property
    def true_front(self) -> np.ndarray:
        """The exact Pareto front objectives (Fig. 11's red stars)."""
        return self.pareto_values.copy()

    def _plan(self, jobs: int, time_remaining: Seconds) -> Schedule:
        return self.planner.plan_from_points(
            self.pareto_configs,
            self.pareto_values[:, 0],
            self.pareto_values[:, 1],
            jobs,
            time_remaining,
        )

    def _execute_round(
        self,
        round_index: int,
        jobs: int,
        deadline: Seconds,
        on_job: Optional[JobCallback],
    ) -> RoundRecord:
        budget = RoundBudget(total_jobs=jobs, deadline=deadline)
        energy_start = self.device.energy_consumed
        record = RoundRecord(
            round_index=round_index,
            phase="oracle",
            deadline=deadline,
            jobs=jobs,
        )
        try:
            schedule = self._plan(jobs, deadline)
            for entry in schedule:
                self.device.set_configuration(entry.config)
                for _ in range(entry.jobs):
                    if budget.finished:
                        break
                    self._run_one_job(budget, on_job)
                    record.exploited_jobs += 1
        except InfeasibleError:
            pass  # fall through to the sprint below
        if not budget.finished:
            self.device.set_configuration(self._x_max)
            while not budget.finished:
                self._run_one_job(budget, on_job)
                record.exploited_jobs += 1
        record.elapsed = budget.elapsed
        record.energy = self.device.energy_consumed - energy_start
        record.missed = budget.elapsed > deadline + 1e-9
        return record
