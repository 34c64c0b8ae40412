"""The multi-objective Bayesian optimizer facade used by BoFL's MBO engine.

Owns the two per-objective GPs (latency and energy, modelled independently
per §4.3), the observation set, and the suggestion logic:

1. fit/refit both GPs on all observations (inputs normalized to the unit
   cube, targets standardized);
2. score every unobserved configuration with exact 2-D EHVI against the
   current observed front and reference point;
3. pick greedily, fantasize the pick at its posterior mean
   (Kriging believer), update the GPs cheaply, and repeat until the batch
   is full.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.bayesopt.acquisition import ehvi_argmax
from repro.bayesopt.gp import BatchPosterior, GaussianProcess
from repro.bayesopt.hypervolume import hypervolume_2d, reference_from_observations
from repro.bayesopt.kernels import Matern52
from repro.bayesopt.pareto import pareto_mask, require_objectives
from repro.errors import NotFittedError, OptimizationError
from repro.hardware.frequency import ConfigurationSpace
from repro.obs import runtime as obs
from repro.types import DvfsConfiguration


class MultiObjectiveBayesianOptimizer:
    """Searches the DVFS space for the latency/energy Pareto set.

    Parameters
    ----------
    space:
        The discrete configuration space to optimize over.
    seed:
        Seed for hyperparameter-fit restarts.
    fit_restarts:
        Random restarts per GP hyperparameter fit.
    reference_margin:
        Relative margin added to the observed-worst reference point so that
        boundary points keep positive hypervolume contribution.
    warm_start:
        Seed refits from the previous round's fitted hyperparameters
        (lengthscales, signal and noise variance) instead of rebuilding
        both GPs from the ``Matern52(0.5)`` prior.  Warm refits skip the
        random L-BFGS-B restarts: the incumbent start is already near the
        optimum, which is what makes repeated refits cheap.  The first fit
        is always cold, so single-fit behavior is unchanged.

    :meth:`suggest` extends the fantasy GPs by rank-1 Cholesky updates
    over a cached candidate posterior (see ``docs/kernel_fastpath.md``);
    ``tests/bayesopt/test_fastpath.py`` pins its picks to an
    O(n^3)-per-pick refit loop.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        *,
        seed: int = 0,
        fit_restarts: int = 2,
        reference_margin: float = 0.05,
        warm_start: bool = True,
    ) -> None:
        self.space = space
        self._rng = np.random.default_rng(seed)
        self.fit_restarts = fit_restarts
        self.reference_margin = reference_margin
        self.warm_start = warm_start
        self._observations: dict[DvfsConfiguration, tuple[float, float]] = {}
        self._gp_latency: Optional[GaussianProcess] = None
        self._gp_energy: Optional[GaussianProcess] = None
        self._reference: Optional[np.ndarray] = None
        self._fit_count = 0
        self._last_max_ehvi: Optional[float] = None
        #: (fantasy capacity, candidates, their inputs, base posteriors);
        #: dropped by ``fit`` and by a new observation.
        self._suggest_cache: Optional[
            tuple[
                int,
                list[DvfsConfiguration],
                np.ndarray,
                BatchPosterior,
                BatchPosterior,
            ]
        ] = None

    # -- observations -----------------------------------------------------

    def add_observation(
        self, config: DvfsConfiguration, latency: float, energy: float
    ) -> None:
        """Record (or overwrite with fresher data) one measured configuration."""
        if config not in self.space:
            raise OptimizationError(f"{config} is outside the optimizer's space")
        observation = require_objectives(latency, energy)
        if config not in self._observations:
            # A new observation changes the candidate set: release the
            # suggest cache now rather than at the next suggest.
            self._suggest_cache = None
        self._observations[config] = observation

    @property
    def n_observations(self) -> int:
        return len(self._observations)

    @property
    def observed_configurations(self) -> list[DvfsConfiguration]:
        return list(self._observations)

    @property
    def fit_count(self) -> int:
        """How many GP refits have run (drives the MBO overhead model)."""
        return self._fit_count

    def objectives_matrix(self) -> tuple[list[DvfsConfiguration], np.ndarray]:
        """All observations as ``(configs, (n, 2) [latency, energy])``."""
        configs = list(self._observations)
        if not configs:
            return configs, np.zeros((0, 2))
        values = np.array([self._observations[c] for c in configs])
        return configs, values

    # -- front / hypervolume ------------------------------------------------

    def reference_point(self) -> np.ndarray:
        """The fixed reference point (set on first use from observations)."""
        if self._reference is None:
            _, values = self.objectives_matrix()
            self._reference = reference_from_observations(
                values, margin=self.reference_margin
            )
        return self._reference

    def freeze_reference(self) -> np.ndarray:
        """Pin the reference point to the current observed worsts.

        The paper fixes the reference at the end of phase 1 ("the
        combination of the worst performances ... we observed in phase 1")
        so hypervolume numbers are comparable across rounds.
        """
        _, values = self.objectives_matrix()
        self._reference = reference_from_observations(values, margin=self.reference_margin)
        return self._reference

    def pareto_set(self) -> tuple[list[DvfsConfiguration], np.ndarray]:
        """The non-dominated observed configurations and their objectives."""
        configs, values = self.objectives_matrix()
        if not configs:
            return [], values
        mask = pareto_mask(values)
        front_configs = [c for c, keep in zip(configs, mask) if keep]
        return front_configs, values[mask]

    def hypervolume(self) -> float:
        """Hypervolume of the observed front w.r.t. the frozen reference."""
        _, values = self.objectives_matrix()
        if values.shape[0] == 0:
            return 0.0
        return hypervolume_2d(values, self.reference_point())

    # -- fitting ----------------------------------------------------------

    def fit(self, optimize_hyperparameters: bool = True) -> None:
        """(Re)fit both objective GPs on all observations."""
        configs, values = self.objectives_matrix()
        if len(configs) < 2:
            raise OptimizationError(
                f"need at least 2 observations to fit the surrogates, have {len(configs)}"
            )
        x = self.space.normalize_many(configs)
        # The cached posteriors belong to the GPs this fit replaces; drop
        # them before the refit allocates, not at the next suggest.
        self._suggest_cache = None
        prev_latency, prev_energy = self._gp_latency, self._gp_energy
        warm = self.warm_start and prev_latency is not None and prev_energy is not None
        with obs.timer("mbo.gp_fit_seconds") as span:
            if self.warm_start and prev_latency is not None and prev_energy is not None:
                # Reuse the previous round's fitted hyperparameters as the
                # L-BFGS-B incumbent and skip the random restarts — the
                # surface moved by one batch of observations, not far.
                gp_latency = GaussianProcess(
                    prev_latency.kernel.clone(),
                    noise_variance=prev_latency.noise_variance,
                )
                gp_energy = GaussianProcess(
                    prev_energy.kernel.clone(),
                    noise_variance=prev_energy.noise_variance,
                )
                restarts = 0
            else:
                gp_latency = GaussianProcess(Matern52(np.full(3, 0.5)))
                gp_energy = GaussianProcess(Matern52(np.full(3, 0.5)))
                restarts = self.fit_restarts
            self._gp_latency = gp_latency
            self._gp_energy = gp_energy
            self._gp_latency.fit(x, values[:, 0])
            self._gp_energy.fit(x, values[:, 1])
            if optimize_hyperparameters:
                self._gp_latency.optimize_hyperparameters(self._rng, n_restarts=restarts)
                self._gp_energy.optimize_hyperparameters(self._rng, n_restarts=restarts)
        self._fit_count += 1
        if warm and obs.enabled():
            obs.count("mbo.warm_fits")
        if obs.enabled():
            obs.count("mbo.gp_fits")
            obs.emit(
                "mbo.fit",
                n_observations=len(configs),
                hyperparameters_optimized=optimize_hyperparameters,
                seconds=span.elapsed,
            )

    @property
    def is_fitted(self) -> bool:
        return self._gp_latency is not None and self._gp_energy is not None

    def predict(self, configs: Sequence[DvfsConfiguration]) -> tuple[np.ndarray, np.ndarray]:
        """Posterior ``(mean, var)`` as ``(m, 2)`` arrays over ``configs``."""
        if self._gp_latency is None or self._gp_energy is None:
            raise NotFittedError("call fit() before predict()")
        x = self.space.normalize_many(configs)
        mean_l, var_l = self._gp_latency.predict(x)
        mean_e, var_e = self._gp_energy.predict(x)
        return np.stack([mean_l, mean_e], axis=1), np.stack([var_l, var_e], axis=1)

    # -- suggestion -----------------------------------------------------------

    def suggest(
        self,
        batch_size: int,
        exclude: Optional[Sequence[DvfsConfiguration]] = None,
    ) -> list[DvfsConfiguration]:
        """Propose up to ``batch_size`` configurations to explore next.

        Sequential greedy EHVI with Kriging-believer fantasies (§4.3).
        Already-observed configurations and ``exclude`` are never proposed.
        Returns fewer than ``batch_size`` picks only when the space is
        nearly exhausted.
        """
        if batch_size < 1:
            raise OptimizationError(f"batch_size must be >= 1, got {batch_size}")
        if self._gp_latency is None or self._gp_energy is None:
            raise NotFittedError("call fit() before suggest()")
        gp_l, gp_e = self._gp_latency, self._gp_energy
        # The candidate set and the base posteriors are pure functions of
        # (fitted GPs, observation set), so repeated suggests against an
        # unchanged optimizer reuse them.  ``fit`` and a new observation
        # drop the cache the moment it goes stale, so two ~2,000-candidate
        # posteriors never outlive the GPs they were built from; ``exclude``
        # bypasses the cache entirely.
        cached = self._suggest_cache if not exclude else None
        candidates: Optional[list[DvfsConfiguration]] = None
        post_l: Optional[BatchPosterior] = None
        post_e: Optional[BatchPosterior] = None
        if cached is not None:
            capacity, candidates, candidate_x, post_l, post_e = cached
            if capacity < batch_size:
                candidates = post_l = post_e = None
        if candidates is None:
            skip = set(self._observations)
            if exclude:
                skip.update(exclude)
            candidates = [c for c in self.space.all_configurations() if c not in skip]
            if not candidates:
                return []
            candidate_x = self.space.normalize_many(candidates)
        if not candidates:
            return []
        reference = self.reference_point()

        _, observed = self.objectives_matrix()
        front = observed[pareto_mask(observed)]

        n_picks = min(batch_size, len(candidates))
        if post_l is None or post_e is None:
            # Cache k(X, C) and L^-1 k(X, C) over the full candidate set
            # once; each fantasy pick extends them by a single row instead
            # of rebuilding the O(n^2 m) substitution from scratch.  The
            # capacity preallocates one buffer row per upcoming fantasy.
            post_l = BatchPosterior(gp_l, candidate_x, capacity=n_picks)
            post_e = BatchPosterior(gp_e, candidate_x, capacity=n_picks)
            if not exclude:
                self._suggest_cache = (
                    n_picks,
                    candidates,
                    candidate_x,
                    post_l,
                    post_e,
                )

        picks: list[DvfsConfiguration] = []
        active = np.ones(len(candidates), dtype=bool)
        max_ehvi_first = None
        ehvi_evaluations = 0
        n_active = len(candidates)
        for _ in range(n_picks):
            # Work in global candidate indices: the cached posteriors
            # cover every candidate, and ehvi_argmax masks out the
            # already-picked rows — no per-pick array compaction.
            mean_l, var_l = post_l.predict()
            mean_e, var_e = post_e.predict()
            mean = np.stack([mean_l, mean_e], axis=1)
            var = np.stack([var_l, var_e], axis=1)
            best, best_ehvi = ehvi_argmax(
                mean, var, front, reference, active=active
            )
            ehvi_evaluations += n_active
            if max_ehvi_first is None:
                max_ehvi_first = best_ehvi
            if best_ehvi <= 0.0:
                # Surrogate saturated: no candidate improves the fantasy
                # front anywhere.  Every further iteration would fantasize
                # another zero-EHVI argmax — deterministically the first
                # active candidate — so emit the remaining picks directly
                # instead of paying two GP updates per pick for nothing.
                remaining = np.flatnonzero(active)[: n_picks - len(picks)]
                picks.extend(candidates[int(i)] for i in remaining)
                if obs.enabled():
                    obs.count("mbo.suggest_short_circuits")
                break
            picks.append(candidates[best])
            active[best] = False
            n_active -= 1
            # Kriging believer: pretend the pick returned its posterior
            # mean.  The fantasy point is a candidate, so its cross-kernel
            # forward substitution is already a cached column.
            fantasy_x = candidate_x[best : best + 1]
            gp_l = gp_l.conditioned_on(
                fantasy_x, mean_l[best : best + 1], l21=post_l.cross_column(best)
            )
            gp_e = gp_e.conditioned_on(
                fantasy_x, mean_e[best : best + 1], l21=post_e.cross_column(best)
            )
            post_l = post_l.extended(gp_l)
            post_e = post_e.extended(gp_e)
            front = np.vstack([front, mean[best]])
        self._last_max_ehvi = max_ehvi_first
        if obs.enabled():
            obs.count("mbo.ehvi_evaluations", ehvi_evaluations)
            obs.emit(
                "mbo.suggest",
                batch_size=batch_size,
                picks=len(picks),
                candidates=len(candidates),
                ehvi_evaluations=ehvi_evaluations,
                max_ehvi=max_ehvi_first,
            )
        return picks

    @property
    def last_max_ehvi(self) -> Optional[float]:
        """Max EHVI seen at the head of the most recent suggestion batch.

        Used by the phase-2 stopping condition: a small value means the
        surrogate expects little further hypervolume gain anywhere.
        """
        return self._last_max_ehvi
