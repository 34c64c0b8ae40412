"""Tests for the extension features: m-objective hypervolume and ParEGO."""

import numpy as np
import pytest

from repro.bayesopt.hypervolume import hypervolume, hypervolume_2d
from repro.bayesopt.parego import ParEGOSuggester, tchebycheff_scalarize
from repro.bayesopt.sampling import sobol_configurations
from repro.errors import NotFittedError, OptimizationError


class TestGeneralHypervolume:
    def test_matches_2d_fast_path(self, rng):
        points = rng.uniform(0, 1, size=(15, 2))
        ref = np.array([1.2, 1.2])
        assert hypervolume(points, ref) == pytest.approx(hypervolume_2d(points, ref))

    def test_single_3d_point_is_box_volume(self):
        value = hypervolume(np.array([[1.0, 2.0, 3.0]]), [4.0, 4.0, 4.0])
        assert value == pytest.approx(3 * 2 * 1)

    def test_disjoint_3d_points_add(self):
        # Two boxes that only overlap in the common dominated corner.
        points = np.array([[0.0, 3.0, 3.0], [3.0, 0.0, 3.0]])
        ref = np.array([4.0, 4.0, 4.0])
        # volumes: 4*1*1 = 4 each; overlap region [3,4]^2 x [3,4] = 1
        assert hypervolume(points, ref) == pytest.approx(4 + 4 - 1)

    def test_dominated_3d_point_adds_nothing(self):
        base = np.array([[1.0, 1.0, 1.0]])
        extra = np.vstack([base, [[2.0, 2.0, 2.0]]])
        ref = np.array([3.0, 3.0, 3.0])
        assert hypervolume(extra, ref) == pytest.approx(hypervolume(base, ref))

    def test_3d_matches_monte_carlo(self, rng):
        points = rng.uniform(0, 1, size=(8, 3))
        ref = np.ones(3)
        exact = hypervolume(points, ref)
        samples = rng.uniform(0, 1, size=(200_000, 3))
        dominated = np.zeros(len(samples), dtype=bool)
        for p in points:
            dominated |= np.all(samples >= p, axis=1)
        assert exact == pytest.approx(dominated.mean(), abs=0.01)

    def test_4d_simple_case(self):
        value = hypervolume(np.array([[0.5] * 4]), np.ones(4))
        assert value == pytest.approx(0.5**4)

    def test_points_outside_reference_ignored(self):
        points = np.array([[0.5, 0.5, 0.5], [2.0, 0.1, 0.1]])
        assert hypervolume(points, np.ones(3)) == pytest.approx(0.125)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(OptimizationError):
            hypervolume(np.array([[1.0, 2.0]]), [3.0, 3.0, 3.0])

    def test_empty_front(self):
        assert hypervolume(np.zeros((0, 3)), np.ones(3)) == 0.0


class TestTchebycheffScalarization:
    def test_weighted_max_plus_augmentation(self):
        y = np.array([[0.2, 0.8]])
        value = tchebycheff_scalarize(y, np.array([0.5, 0.5]), rho=0.1)
        assert value[0] == pytest.approx(0.4 + 0.1 * 0.5)

    def test_monotone_in_each_objective(self, rng):
        weights = np.array([0.3, 0.7])
        base = tchebycheff_scalarize(np.array([[0.4, 0.4]]), weights)
        worse = tchebycheff_scalarize(np.array([[0.5, 0.4]]), weights)
        assert worse[0] > base[0]

    def test_validation(self):
        with pytest.raises(OptimizationError):
            tchebycheff_scalarize(np.array([[1.0, 2.0]]), np.array([1.0]))
        with pytest.raises(OptimizationError):
            tchebycheff_scalarize(np.array([[1.0, 2.0]]), np.array([0.0, 0.0]))
        with pytest.raises(OptimizationError):
            tchebycheff_scalarize(np.array([[1.0, 2.0]]), np.array([1.0, 1.0]), rho=-1)


class TestParEGO:
    @pytest.fixture()
    def seeded(self, tiny_spec, tiny_workload):
        model = tiny_workload.performance_model(tiny_spec)
        suggester = ParEGOSuggester(tiny_spec.space, seed=0)
        for config in sobol_configurations(tiny_spec.space, 12, seed=0):
            suggester.add_observation(config, *model.objectives(config))
        return suggester, model

    def test_requires_fit_before_suggest(self, seeded):
        suggester, _ = seeded
        with pytest.raises(NotFittedError):
            suggester.suggest(3)

    def test_suggests_unobserved_distinct(self, seeded):
        suggester, _ = seeded
        suggester.fit()
        picks = suggester.suggest(5)
        assert len(set(picks)) == 5
        assert not set(suggester._observations).intersection(picks)

    def test_improves_front_over_rounds(self, seeded, tiny_spec):
        from repro.bayesopt.hypervolume import hypervolume_2d, reference_from_observations
        from repro.bayesopt.pareto import pareto_front

        suggester, model = seeded
        _, values0 = suggester.pareto_set()
        reference = None
        for _ in range(4):
            suggester.fit()
            for pick in suggester.suggest(4):
                suggester.add_observation(pick, *model.objectives(pick))
        latencies, energies = model.profile_space()
        true_front = pareto_front(np.stack([latencies, energies], axis=1))
        _, found = suggester.pareto_set()
        reference = reference_from_observations(
            np.vstack([found, true_front]), margin=0.05
        )
        ratio = hypervolume_2d(found, reference) / hypervolume_2d(true_front, reference)
        assert ratio > 0.85  # good, though typically below EHVI's ~0.95+

    def test_validates_observations(self, tiny_spec):
        suggester = ParEGOSuggester(tiny_spec.space)
        with pytest.raises(OptimizationError):
            suggester.add_observation(
                tiny_spec.space.max_configuration(), -1.0, 1.0
            )
        with pytest.raises(OptimizationError):
            suggester.fit()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["latency", "energy"])
    def test_rejects_non_finite_observations(self, seeded, tiny_spec, field, bad):
        """A stored NaN used to surface only at the next fit, in scipy."""
        suggester, _ = seeded
        values = {"latency": 1.0, "energy": 1.0, field: bad}
        unobserved = next(
            c for c in tiny_spec.space if c not in suggester._observations
        )
        with pytest.raises(OptimizationError, match=f"{field}.*{bad}"):
            suggester.add_observation(
                unobserved, values["latency"], values["energy"]
            )
        assert suggester.n_observations == 12
        suggester.fit()
