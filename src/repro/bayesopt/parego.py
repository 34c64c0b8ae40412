"""ParEGO: scalarized single-GP multi-objective optimization (extension).

An alternative acquisition strategy to compare EHVI against (Knowles,
2006): each suggestion round draws a random weight vector, collapses the
objectives with the augmented Tchebycheff scalarization

    ``s(y) = max_i(w_i * y_i) + rho * sum_i(w_i * y_i)``

over normalized objectives, fits ONE GP to the scalarized values, and
maximizes classic Expected Improvement.  Cheaper per round than EHVI
(one GP, no hypervolume machinery) but less sample-efficient at covering
the whole front — exactly the trade-off the ``abl_parego`` benchmark
quantifies.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.bayesopt.acquisition import expected_improvement
from repro.bayesopt.gp import GaussianProcess
from repro.bayesopt.kernels import Matern52
from repro.bayesopt.pareto import pareto_mask, require_objectives
from repro.errors import NotFittedError, OptimizationError
from repro.hardware.frequency import ConfigurationSpace
from repro.types import DvfsConfiguration


def tchebycheff_scalarize(
    objectives: np.ndarray, weights: np.ndarray, rho: float = 0.05
) -> np.ndarray:
    """Augmented Tchebycheff scalarization of normalized objectives."""
    objectives = np.atleast_2d(np.asarray(objectives, dtype=float))
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.size != objectives.shape[1]:
        raise OptimizationError(
            f"{weights.size} weights for {objectives.shape[1]} objectives"
        )
    if np.any(weights < 0) or weights.sum() <= 0:
        raise OptimizationError("weights must be non-negative, not all zero")
    if rho < 0:
        raise OptimizationError(f"rho must be >= 0, got {rho}")
    weighted = objectives * weights[None, :]
    return weighted.max(axis=1) + rho * weighted.sum(axis=1)


class ParEGOSuggester:
    """Drop-in alternative to the EHVI optimizer's suggest() loop."""

    def __init__(self, space: ConfigurationSpace, *, seed: int = 0, rho: float = 0.05) -> None:
        self.space = space
        self.rho = rho
        self._rng = np.random.default_rng(seed)
        self._observations: dict[DvfsConfiguration, tuple[float, float]] = {}
        self._gp: Optional[GaussianProcess] = None
        self._scalarized: Optional[np.ndarray] = None

    # -- observations ---------------------------------------------------------

    def add_observation(
        self, config: DvfsConfiguration, latency: float, energy: float
    ) -> None:
        """Record one measured configuration."""
        if config not in self.space:
            raise OptimizationError(f"{config} is outside the space")
        self._observations[config] = require_objectives(latency, energy)

    @property
    def n_observations(self) -> int:
        return len(self._observations)

    def pareto_set(self) -> tuple[list[DvfsConfiguration], np.ndarray]:
        """Non-dominated observed configurations and their objectives."""
        configs = list(self._observations)
        if not configs:
            return [], np.zeros((0, 2))
        values = np.array([self._observations[c] for c in configs])
        mask = pareto_mask(values)
        return [c for c, keep in zip(configs, mask) if keep], values[mask]

    # -- suggestion -------------------------------------------------------------

    def fit(self) -> None:
        """Draw fresh weights and fit the scalarized GP."""
        configs = list(self._observations)
        if len(configs) < 2:
            raise OptimizationError("need at least 2 observations")
        y = np.array([self._observations[c] for c in configs])
        # normalize objectives to [0, 1] before scalarizing
        lo, hi = y.min(axis=0), y.max(axis=0)
        span = np.where(hi - lo > 1e-12, hi - lo, 1.0)
        normalized = (y - lo) / span
        weight = self._rng.dirichlet(np.ones(2))
        self._scalarized = tchebycheff_scalarize(normalized, weight, self.rho)
        x = self.space.normalize_many(configs)
        self._gp = GaussianProcess(Matern52(np.full(3, 0.5)))
        self._gp.fit(x, self._scalarized)
        self._gp.optimize_hyperparameters(self._rng, n_restarts=1)

    def suggest(
        self,
        batch_size: int,
        exclude: Optional[Sequence[DvfsConfiguration]] = None,
    ) -> list[DvfsConfiguration]:
        """Greedy EI batch with Kriging-believer fantasies."""
        if batch_size < 1:
            raise OptimizationError(f"batch_size must be >= 1, got {batch_size}")
        if self._gp is None or self._scalarized is None:
            raise NotFittedError("call fit() before suggest()")
        skip = set(self._observations)
        if exclude:
            skip.update(exclude)
        candidates = [c for c in self.space.all_configurations() if c not in skip]
        if not candidates:
            return []
        candidate_x = self.space.normalize_many(candidates)
        gp = self._gp
        best = float(self._scalarized.min())
        picks: list[DvfsConfiguration] = []
        active = np.ones(len(candidates), dtype=bool)
        for _ in range(min(batch_size, len(candidates))):
            idx_active = np.flatnonzero(active)
            mean, var = gp.predict(candidate_x[idx_active])
            ei = expected_improvement(mean, var, best)
            local = int(np.argmax(ei))
            chosen = idx_active[local]
            picks.append(candidates[chosen])
            active[chosen] = False
            gp = gp.conditioned_on(
                candidate_x[chosen : chosen + 1], mean[local : local + 1]
            )
            best = min(best, float(mean[local]))
        return picks
