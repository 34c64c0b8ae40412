"""Tests for the MBO kernel fast path (see ``docs/kernel_fastpath.md``).

Covers the rank-1 Cholesky extension against the from-scratch refit, the
cached candidate posterior, the pruned-but-exact EHVI argmax, jitter
escalation, and the saturation short-circuit in ``suggest``.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayesopt.acquisition import (
    MIN_STD,
    ehvi_argmax,
    expected_hypervolume_improvement,
    expected_improvement,
)
from repro.bayesopt.gp import BatchPosterior, GaussianProcess
from repro.bayesopt.kernels import Matern52
from repro.bayesopt.pareto import pareto_mask
from repro.bayesopt.sampling import sobol_configurations
from repro.errors import OptimizationError
from repro.hardware.devices import jetson_agx
from repro.obs import runtime as obs
from repro.workloads.zoo import vit
from repro.bayesopt.optimizer import MultiObjectiveBayesianOptimizer


def fitted_gp(rng, n=20, d=3, noise_variance=1e-5):
    x = rng.uniform(size=(n, d))
    y = np.sin(3.0 * x[:, 0]) + 0.5 * x[:, 1]
    return GaussianProcess(noise_variance=noise_variance).fit(x, y)


def refit_conditioned(gp, x_new, y_new):
    """The O(n^3) reference: a fresh GP with the same hyperparameters, fit
    from scratch on the old data plus ``(x_new, y_new)``."""
    x_all = np.vstack([gp._x, np.atleast_2d(x_new)])
    y_all = np.concatenate([gp._y_raw, np.ravel(y_new)])
    return GaussianProcess(
        gp.kernel.clone(),
        noise_variance=gp.noise_variance,
        normalize_y=gp.normalize_y,
        jitter=gp.jitter,
    ).fit(x_all, y_all)


def refit_suggest(optimizer, batch_size):
    """Greedy EHVI with Kriging-believer fantasies, refitting both GPs
    from scratch after every pick — the loop ``suggest`` must reproduce."""
    candidates = [
        c
        for c in optimizer.space.all_configurations()
        if c not in set(optimizer.observed_configurations)
    ]
    candidate_x = optimizer.space.normalize_many(candidates)
    reference = optimizer.reference_point()
    _, observed = optimizer.objectives_matrix()
    front = observed[pareto_mask(observed)]
    gp_l, gp_e = optimizer._gp_latency, optimizer._gp_energy
    active = np.ones(len(candidates), dtype=bool)
    picks = []
    for _ in range(min(batch_size, len(candidates))):
        idx = np.flatnonzero(active)
        mean_l, var_l = gp_l.predict(candidate_x[idx])
        mean_e, var_e = gp_e.predict(candidate_x[idx])
        mean = np.stack([mean_l, mean_e], axis=1)
        var = np.stack([var_l, var_e], axis=1)
        ehvi = expected_hypervolume_improvement(mean, var, front, reference)
        local = int(np.argmax(ehvi))
        if ehvi[local] <= 0.0:
            picks.extend(candidates[int(i)] for i in idx[: batch_size - len(picks)])
            break
        best = int(idx[local])
        picks.append(candidates[best])
        active[best] = False
        x_new = candidate_x[best : best + 1]
        gp_l = refit_conditioned(gp_l, x_new, mean_l[local : local + 1])
        gp_e = refit_conditioned(gp_e, x_new, mean_e[local : local + 1])
        front = np.vstack([front, mean[local]])
    return picks


def fitted_optimizer(n_obs=40, **kwargs):
    spec = jetson_agx()
    model = vit().performance_model(spec)
    optimizer = MultiObjectiveBayesianOptimizer(
        spec.space, seed=0, fit_restarts=0, **kwargs
    )
    for config in sobol_configurations(spec.space, n_obs, seed=0):
        latency, energy = model.objectives(config)
        optimizer.add_observation(config, latency, energy)
    optimizer.fit(optimize_hyperparameters=False)
    return optimizer


class TestRank1Conditioning:
    """The O(n^2) Cholesky extension must match the O(n^3) refit."""

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 24))
    @settings(max_examples=60, deadline=None)
    def test_rank1_matches_refit_posterior(self, seed, n):
        rng = np.random.default_rng(seed)
        gp = fitted_gp(rng, n=n)
        x_new = rng.uniform(size=(1, 3))
        y_new = rng.normal(size=1)
        fast = gp.conditioned_on(x_new, y_new)
        slow = refit_conditioned(gp, x_new, y_new)
        x_star = rng.uniform(size=(16, 3))
        mean_fast, var_fast = fast.predict(x_star)
        mean_slow, var_slow = slow.predict(x_star)
        np.testing.assert_allclose(mean_fast, mean_slow, rtol=0, atol=1e-9)
        np.testing.assert_allclose(var_fast, var_slow, rtol=0, atol=1e-9)

    def test_chained_extensions_stay_close(self, rng):
        gp_fast = gp_slow = fitted_gp(rng)
        for _ in range(5):
            x_new = rng.uniform(size=(1, 3))
            y_new = rng.normal(size=1)
            gp_fast = gp_fast.conditioned_on(x_new, y_new)
            gp_slow = refit_conditioned(gp_slow, x_new, y_new)
        x_star = rng.uniform(size=(32, 3))
        mean_fast, var_fast = gp_fast.predict(x_star)
        mean_slow, var_slow = gp_slow.predict(x_star)
        np.testing.assert_allclose(mean_fast, mean_slow, rtol=0, atol=1e-8)
        np.testing.assert_allclose(var_fast, var_slow, rtol=0, atol=1e-8)

    def test_precomputed_cross_column_is_equivalent(self, rng):
        gp = fitted_gp(rng)
        candidates = rng.uniform(size=(12, 3))
        posterior = BatchPosterior(gp, candidates, capacity=1)
        pick = 7
        x_new = candidates[pick : pick + 1]
        y_new = np.array([0.3])
        with_column = gp.conditioned_on(
            x_new, y_new, l21=posterior.cross_column(pick)
        )
        without = gp.conditioned_on(x_new, y_new)
        x_star = rng.uniform(size=(16, 3))
        # The cached column comes from a batched triangular solve; BLAS
        # blocking may differ from the single-column solve by a few ulp.
        np.testing.assert_allclose(
            with_column.predict(x_star)[0], without.predict(x_star)[0],
            rtol=0, atol=1e-9,
        )
        np.testing.assert_allclose(
            with_column.predict(x_star)[1], without.predict(x_star)[1],
            rtol=0, atol=1e-9,
        )


class TestBatchPosterior:
    def test_matches_gp_predict(self, rng):
        gp = fitted_gp(rng)
        candidates = rng.uniform(size=(40, 3))
        mean_ref, var_ref = gp.predict(candidates)
        mean, var = BatchPosterior(gp, candidates).predict()
        np.testing.assert_allclose(mean, mean_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(var, var_ref, rtol=0, atol=1e-12)

    def test_extended_matches_fresh_posterior(self, rng):
        gp = fitted_gp(rng)
        candidates = rng.uniform(size=(30, 3))
        posterior = BatchPosterior(gp, candidates, capacity=3)
        for pick in (4, 11, 26):
            x_new = candidates[pick : pick + 1]
            y_new = np.array([0.1 * pick])
            gp = gp.conditioned_on(x_new, y_new, l21=posterior.cross_column(pick))
            posterior = posterior.extended(gp)
            mean_ref, var_ref = gp.predict(candidates)
            mean, var = posterior.predict()
            np.testing.assert_allclose(mean, mean_ref, rtol=0, atol=1e-9)
            np.testing.assert_allclose(var, var_ref, rtol=0, atol=1e-9)

    def test_extension_beyond_capacity_falls_back(self, rng):
        gp = fitted_gp(rng)
        candidates = rng.uniform(size=(10, 3))
        posterior = BatchPosterior(gp, candidates, capacity=0)
        gp2 = gp.conditioned_on(candidates[:1], np.array([0.2]))
        extended = posterior.extended(gp2)
        mean_ref, var_ref = gp2.predict(candidates)
        mean, var = extended.predict()
        np.testing.assert_allclose(mean, mean_ref, rtol=0, atol=1e-9)
        np.testing.assert_allclose(var, var_ref, rtol=0, atol=1e-9)


class TestEhviArgmax:
    """Pruning must stay bit-exact against the dense scan."""

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_argmax(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 600)
        n_front = rng.integers(1, 30)
        mean = rng.uniform(0.0, 10.0, size=(n, 2))
        var = rng.uniform(0.0, 4.0, size=(n, 2))
        front = rng.uniform(1.0, 9.0, size=(n_front, 2))
        reference = np.array([12.0, 12.0])
        values = expected_hypervolume_improvement(mean, var, front, reference)
        best, best_value = ehvi_argmax(mean, var, front, reference)
        assert best == int(np.argmax(values))
        assert best_value == float(values[best])

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_argmax_with_active_mask(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 600)
        mean = rng.uniform(0.0, 10.0, size=(n, 2))
        var = rng.uniform(0.0, 4.0, size=(n, 2))
        front = rng.uniform(1.0, 9.0, size=(rng.integers(1, 30), 2))
        reference = np.array([12.0, 12.0])
        active = rng.uniform(size=n) < 0.7
        if not active.any():
            active[rng.integers(0, n)] = True
        values = expected_hypervolume_improvement(mean, var, front, reference)
        masked = np.where(active, values, -np.inf)
        best, best_value = ehvi_argmax(mean, var, front, reference, active=active)
        assert active[best]
        if best_value > 0.0:
            assert best == int(np.argmax(masked))
            assert best_value == float(values[best])
        else:
            assert float(masked.max()) <= 0.0

    def test_saturated_front_returns_first_active(self):
        # Every candidate mean sits beyond the reference: EHVI is 0 everywhere.
        mean = np.full((50, 2), 20.0)
        var = np.full((50, 2), 1e-18)
        front = np.array([[1.0, 1.0]])
        reference = np.array([10.0, 10.0])
        active = np.zeros(50, dtype=bool)
        active[17:] = True
        best, value = ehvi_argmax(mean, var, front, reference, active=active)
        assert (best, value) == (17, 0.0)

    def test_all_inactive_raises(self):
        mean = np.zeros((4, 2))
        var = np.ones((4, 2))
        with pytest.raises(OptimizationError):
            ehvi_argmax(
                mean,
                var,
                np.array([[1.0, 1.0]]),
                np.array([2.0, 2.0]),
                active=np.zeros(4, dtype=bool),
            )


class TestVarianceFloor:
    """EI and EHVI share one deterministic-limit floor (``MIN_STD``)."""

    def test_zero_variance_non_improving_ei_is_exactly_zero(self):
        value = expected_improvement(
            np.array([5.0]), np.array([0.0]), best=1.0
        )
        assert value[0] == 0.0

    def test_zero_variance_dominated_ehvi_is_exactly_zero(self):
        mean = np.array([[5.0, 5.0]])
        var = np.array([[0.0, 0.0]])
        front = np.array([[1.0, 1.0]])
        values = expected_hypervolume_improvement(
            mean, var, front, np.array([10.0, 10.0])
        )
        assert values[0] == 0.0

    def test_floor_is_shared(self):
        assert MIN_STD == 1e-12


class TestJitterEscalation:
    def test_near_singular_covariance_still_factorizes(self):
        # Two identical inputs with zero noise: singular without jitter.
        x = np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.9]])
        y = np.array([1.0, 1.0, 2.0])
        gp = GaussianProcess(
            Matern52(np.full(2, 1.0)), noise_variance=1e-18, jitter=0.0
        )
        gp.fit(x, y)
        mean, _ = gp.predict(x[:1])
        assert np.isfinite(mean).all()

    def test_escalation_emits_event(self):
        x = np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.9]])
        y = np.array([1.0, 1.0, 2.0])
        with obs.session() as session:
            GaussianProcess(
                Matern52(np.full(2, 1.0)), noise_variance=1e-18, jitter=0.0
            ).fit(x, y)
        events = [e for e in session.log if e.kind == "mbo.jitter_escalated"]
        assert len(events) == 1
        payload = events[0].payload
        assert payload["where"] == "refactorize"
        assert payload["retries"] >= 1
        assert payload["jitter"] > 0.0
        assert session.metrics.counter("mbo.jitter_escalations") == 1

    def test_exhausted_retries_raise_optimization_error(self, monkeypatch):
        from repro.bayesopt import gp as gp_module

        def always_fails(extra):
            raise np.linalg.LinAlgError("not positive definite")

        with pytest.raises(OptimizationError, match="jitter escalations"):
            gp_module._attempt_with_jitter(
                always_fails, first_bump=1e-8, where="test", size=3
            )

    def test_posterior_samples_with_duplicated_query_points(self, rng):
        # Regression: duplicated rows make the fantasy covariance exactly
        # singular; the sampler must escalate jitter instead of raising.
        gp = fitted_gp(rng)
        x_star = np.vstack([rng.uniform(size=(1, 3))] * 4)
        draws = gp.posterior_samples(x_star, 8, np.random.default_rng(0))
        assert draws.shape == (8, 4)
        assert np.isfinite(draws).all()
        # all four duplicated columns must agree draw-by-draw (same point)
        spread = draws.max(axis=1) - draws.min(axis=1)
        assert spread.max() < 1e-3


class TestSuggestFastPath:
    def test_fast_and_legacy_pick_identically(self):
        """The rank-1/cached-posterior suggest picks exactly what the
        O(n^3)-per-pick refit loop picks."""
        fast = fitted_optimizer()
        reference = fitted_optimizer()
        assert fast.suggest(8) == refit_suggest(reference, 8)

    def test_repeated_suggest_reuses_cache(self):
        optimizer = fitted_optimizer()
        first = optimizer.suggest(6)
        assert optimizer._suggest_cache is not None
        cached = optimizer._suggest_cache[3]
        assert optimizer.suggest(6) == first
        assert optimizer._suggest_cache[3] is cached

    def test_cache_invalidated_by_new_observation_and_refit(self):
        optimizer = fitted_optimizer()
        picks = optimizer.suggest(4)
        stale = optimizer._suggest_cache
        spec_model = vit().performance_model(jetson_agx())
        latency, energy = spec_model.objectives(picks[0])
        optimizer.add_observation(picks[0], latency, energy)
        optimizer.fit(optimize_hyperparameters=False)
        next_picks = optimizer.suggest(4)
        assert picks[0] not in next_picks
        assert optimizer._suggest_cache is not stale

    @pytest.mark.parametrize("change", ["fit", "new observation"])
    def test_stale_cache_is_released_at_once(self, change):
        """The two cached candidate posteriors die with the change that
        makes them stale, not at the next suggest."""
        optimizer = fitted_optimizer()
        picks = optimizer.suggest(4)
        cached = weakref.ref(optimizer._suggest_cache[3])
        if change == "fit":
            optimizer.fit(optimize_hyperparameters=False)
        else:
            model = vit().performance_model(jetson_agx())
            optimizer.add_observation(picks[0], *model.objectives(picks[0]))
        assert optimizer._suggest_cache is None
        gc.collect()
        assert cached() is None

    def test_overwritten_observation_keeps_the_cache(self):
        """Fresher data for an observed point leaves the key (fit count,
        observation count) unchanged, and the cache with it."""
        optimizer = fitted_optimizer()
        optimizer.suggest(4)
        cached = optimizer._suggest_cache
        observed = optimizer.observed_configurations[0]
        optimizer.add_observation(observed, 1.0, 1.0)
        assert optimizer._suggest_cache is cached

    def test_exclude_bypasses_cache_and_is_respected(self):
        optimizer = fitted_optimizer()
        picks = optimizer.suggest(6)
        excluded = optimizer.suggest(6, exclude=picks[:2])
        assert not set(picks[:2]) & set(excluded)

    def test_saturated_surrogate_short_circuits(self, monkeypatch):
        optimizer = fitted_optimizer()
        monkeypatch.setattr(
            "repro.bayesopt.optimizer.ehvi_argmax",
            lambda mean, var, front, reference, active=None: (
                int(np.argmax(active)), 0.0
            ),
        )
        calls = {"n": 0}
        original = GaussianProcess.conditioned_on

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(GaussianProcess, "conditioned_on", counting)
        with obs.session() as session:
            picks = optimizer.suggest(6)
        assert len(picks) == 6  # still fills the batch deterministically
        assert calls["n"] == 0  # but without any fantasy GP updates
        assert session.metrics.counter("mbo.suggest_short_circuits") == 1


class TestWarmStartAccounting:
    def test_fit_count_tracks_refits(self):
        optimizer = fitted_optimizer()
        assert optimizer.fit_count == 1
        optimizer.fit(optimize_hyperparameters=False)
        assert optimizer.fit_count == 2

    def test_warm_refit_is_counted(self):
        warm = fitted_optimizer(warm_start=True)
        cold = fitted_optimizer(warm_start=False)
        with obs.session() as session:
            warm.fit()
            cold.fit()
        assert session.metrics.counter("mbo.warm_fits") == 1
        assert session.metrics.counter("mbo.gp_fits") == 2

    def test_first_fit_is_always_cold(self):
        with obs.session() as session:
            fitted_optimizer(warm_start=True)
        assert session.metrics.counter("mbo.warm_fits") == 0
        assert session.metrics.counter("mbo.gp_fits") == 1

    def test_rank_one_updates_are_accounted(self):
        optimizer = fitted_optimizer()
        optimizer.suggest(5)
        # suggest fantasizes batch_size - 1 interior picks per GP; the
        # final pick needs no update.  The optimizer's own GPs stay at 0.
        assert optimizer._gp_latency is not None
        assert optimizer._gp_latency.rank_one_updates == 0
