"""Unit tests for space sampling and the MBO facade."""

import numpy as np
import pytest

from repro.bayesopt.optimizer import MultiObjectiveBayesianOptimizer
from repro.bayesopt.sampling import ScrambledSobol, sobol_configurations, uniform_configurations
from repro.errors import NotFittedError, OptimizationError
from repro.hardware.devices import get_device
from repro.types import DvfsConfiguration


class TestSobolSampling:
    def test_requested_count_distinct(self, tiny_spec):
        picks = sobol_configurations(tiny_spec.space, 12, seed=0)
        assert len(picks) == 12
        assert len(set(picks)) == 12
        assert all(p in tiny_spec.space for p in picks)

    def test_deterministic_per_seed(self, tiny_spec):
        a = sobol_configurations(tiny_spec.space, 8, seed=3)
        b = sobol_configurations(tiny_spec.space, 8, seed=3)
        c = sobol_configurations(tiny_spec.space, 8, seed=4)
        assert a == b
        assert a != c

    def test_exclusion_respected(self, tiny_spec):
        banned = tiny_spec.space.max_configuration()
        picks = sobol_configurations(tiny_spec.space, 10, seed=0, exclude=[banned])
        assert banned not in picks

    def test_spreads_across_axes(self, tiny_spec):
        picks = sobol_configurations(tiny_spec.space, 20, seed=1)
        cpus = {p.cpu for p in picks}
        gpus = {p.gpu for p in picks}
        assert len(cpus) >= 3 and len(gpus) >= 3

    def test_rejects_oversampling(self, tiny_spec):
        with pytest.raises(OptimizationError):
            sobol_configurations(tiny_spec.space, len(tiny_spec.space) + 1, seed=0)

    def test_rejects_zero(self, tiny_spec):
        with pytest.raises(OptimizationError):
            sobol_configurations(tiny_spec.space, 0, seed=0)

    @pytest.mark.parametrize(("device", "n"), [("tx2", 935), ("tx2", 936), ("agx", 2100)])
    def test_extends_past_two_batches(self, device, n, monkeypatch):
        # Near-exhaustive draws need a third batch; every batch after the
        # first doubles the total drawn, so it stays a power of two.
        batches = []
        points = ScrambledSobol.points

        def recorded(self, start, stop):
            batches.append((start, stop))
            return points(self, start, stop)

        monkeypatch.setattr(ScrambledSobol, "points", recorded)
        picks = sobol_configurations(get_device(device).space, n, seed=0)
        assert len(set(picks)) == n
        assert len(batches) > 2
        assert [start for start, _ in batches] == [0] + [stop for _, stop in batches[:-1]]
        assert all(stop == 2 * start for start, stop in batches[1:])

    def test_raises_once_the_sequence_runs_out(self, tiny_spec, monkeypatch):
        # A sequence stuck on one point never yields a second configuration.
        monkeypatch.setattr(ScrambledSobol, "points", lambda self, start, stop: np.zeros((1, 3)))
        with pytest.raises(OptimizationError, match="exhausted"):
            sobol_configurations(tiny_spec.space, 2, seed=0)


class TestUniformSampling:
    def test_distinct_and_in_space(self, tiny_spec, rng):
        picks = uniform_configurations(tiny_spec.space, 15, rng)
        assert len(set(picks)) == 15

    def test_exclusion(self, tiny_spec, rng):
        banned = set(tiny_spec.space.all_configurations()[:80])
        picks = uniform_configurations(tiny_spec.space, 5, rng, exclude=banned)
        assert not banned.intersection(picks)

    def test_rejects_overdraw_after_exclusion(self, tiny_spec, rng):
        banned = tiny_spec.space.all_configurations()[:85]
        with pytest.raises(OptimizationError):
            uniform_configurations(tiny_spec.space, 10, rng, exclude=banned)


@pytest.fixture()
def seeded_optimizer(tiny_spec, tiny_workload):
    """Optimizer with 12 noise-free observations on the tiny surface."""
    model = tiny_workload.performance_model(tiny_spec)
    optimizer = MultiObjectiveBayesianOptimizer(tiny_spec.space, seed=0, fit_restarts=0)
    for config in sobol_configurations(tiny_spec.space, 12, seed=0):
        optimizer.add_observation(config, *model.objectives(config))
    return optimizer, model


class TestOptimizer:
    def test_observation_bookkeeping(self, seeded_optimizer):
        optimizer, _ = seeded_optimizer
        assert optimizer.n_observations == 12
        configs, values = optimizer.objectives_matrix()
        assert len(configs) == 12 and values.shape == (12, 2)

    def test_add_observation_validates(self, tiny_spec):
        optimizer = MultiObjectiveBayesianOptimizer(tiny_spec.space)
        with pytest.raises(OptimizationError):
            optimizer.add_observation(DvfsConfiguration(9.9, 9.9, 9.9), 1.0, 1.0)
        with pytest.raises(OptimizationError):
            optimizer.add_observation(tiny_spec.space.max_configuration(), -1.0, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["latency", "energy"])
    def test_add_observation_rejects_non_finite(self, tiny_spec, field, bad):
        optimizer = MultiObjectiveBayesianOptimizer(tiny_spec.space)
        values = {"latency": 1.0, "energy": 1.0, field: bad}
        with pytest.raises(OptimizationError, match=f"{field}.*{bad}"):
            optimizer.add_observation(
                tiny_spec.space.max_configuration(), values["latency"], values["energy"]
            )
        assert optimizer.n_observations == 0

    def test_duplicate_observation_overwrites(self, tiny_spec):
        optimizer = MultiObjectiveBayesianOptimizer(tiny_spec.space)
        config = tiny_spec.space.max_configuration()
        optimizer.add_observation(config, 1.0, 1.0)
        optimizer.add_observation(config, 2.0, 2.0)
        assert optimizer.n_observations == 1
        _, values = optimizer.objectives_matrix()
        assert values[0].tolist() == [2.0, 2.0]

    def test_fit_requires_two_observations(self, tiny_spec):
        optimizer = MultiObjectiveBayesianOptimizer(tiny_spec.space)
        optimizer.add_observation(tiny_spec.space.max_configuration(), 1.0, 1.0)
        with pytest.raises(OptimizationError):
            optimizer.fit()

    def test_suggest_requires_fit(self, seeded_optimizer):
        optimizer, _ = seeded_optimizer
        with pytest.raises(NotFittedError):
            optimizer.suggest(3)

    def test_suggest_returns_unobserved_distinct(self, seeded_optimizer):
        optimizer, _ = seeded_optimizer
        optimizer.fit(optimize_hyperparameters=False)
        picks = optimizer.suggest(5)
        assert len(picks) == 5
        assert len(set(picks)) == 5
        observed = set(optimizer.observed_configurations)
        assert not observed.intersection(picks)

    def test_suggest_respects_exclude(self, seeded_optimizer, tiny_spec):
        optimizer, _ = seeded_optimizer
        optimizer.fit(optimize_hyperparameters=False)
        exclude = tiny_spec.space.all_configurations()[:40]
        picks = optimizer.suggest(4, exclude=exclude)
        assert not set(exclude).intersection(picks)

    def test_suggest_exhausts_space_gracefully(self, tiny_spec, tiny_workload):
        model = tiny_workload.performance_model(tiny_spec)
        optimizer = MultiObjectiveBayesianOptimizer(tiny_spec.space, fit_restarts=0)
        all_configs = tiny_spec.space.all_configurations()
        for config in all_configs[:-2]:
            optimizer.add_observation(config, *model.objectives(config))
        optimizer.fit(optimize_hyperparameters=False)
        picks = optimizer.suggest(10)
        assert len(picks) == 2  # only two unobserved points remain

    def test_hypervolume_grows_with_observations(self, seeded_optimizer, tiny_spec):
        optimizer, model = seeded_optimizer
        optimizer.freeze_reference()
        hv_before = optimizer.hypervolume()
        # add the true best-energy configuration
        latencies, energies = model.profile_space()
        best = tiny_spec.space.all_configurations()[int(np.argmin(energies))]
        if best not in optimizer.observed_configurations:
            optimizer.add_observation(best, *model.objectives(best))
        assert optimizer.hypervolume() >= hv_before - 1e-12

    def test_suggestions_improve_front(self, seeded_optimizer, tiny_spec):
        optimizer, model = seeded_optimizer
        optimizer.freeze_reference()
        for _ in range(4):
            optimizer.fit(optimize_hyperparameters=False)
            for pick in optimizer.suggest(4):
                optimizer.add_observation(pick, *model.objectives(pick))
        # near-complete front after ~24 evaluations of a 90-point space
        latencies, energies = model.profile_space()
        from repro.bayesopt.pareto import pareto_front
        from repro.bayesopt.hypervolume import hypervolume_2d
        true_front = pareto_front(np.stack([latencies, energies], axis=1))
        reference = optimizer.reference_point()
        _, found = optimizer.pareto_set()
        ratio = hypervolume_2d(found, reference) / hypervolume_2d(true_front, reference)
        assert ratio > 0.95

    def test_predict_shapes(self, seeded_optimizer, tiny_spec):
        optimizer, _ = seeded_optimizer
        optimizer.fit(optimize_hyperparameters=False)
        mean, var = optimizer.predict(tiny_spec.space.all_configurations()[:7])
        assert mean.shape == (7, 2) and var.shape == (7, 2)
        assert np.all(var >= 0)

    def test_fit_count_increments(self, seeded_optimizer):
        optimizer, _ = seeded_optimizer
        assert optimizer.fit_count == 0
        optimizer.fit(optimize_hyperparameters=False)
        optimizer.fit(optimize_hyperparameters=False)
        assert optimizer.fit_count == 2
