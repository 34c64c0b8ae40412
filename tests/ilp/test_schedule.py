"""Unit tests for the Eqn. 1 schedule solvers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, InfeasibleError
from repro.ilp.schedule import (
    ScheduleProblem,
    solve_schedule,
    solve_schedule_greedy,
    solve_schedule_pairs,
)


def problem(lat, en, jobs, deadline, margin=0.0):
    return ScheduleProblem(np.array(lat), np.array(en), jobs, deadline, margin)


class TestProblemValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            problem([0.1, 0.2], [1.0], 10, 5.0)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ConfigurationError):
            problem([0.1, 0.0], [1.0, 1.0], 10, 5.0)
        with pytest.raises(ConfigurationError):
            problem([0.1], [1.0], 0, 5.0)
        with pytest.raises(ConfigurationError):
            problem([0.1], [1.0], 10, -1.0)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ConfigurationError, match="finite"):
            problem([0.1, float("nan")], [1.0, 1.0], 10, 5.0)
        with pytest.raises(ConfigurationError, match="finite"):
            problem([0.1, 0.2], [1.0, float("inf")], 10, 5.0)
        with pytest.raises(ConfigurationError, match="finite"):
            problem([0.1], [1.0], 10, float("nan"))
        with pytest.raises(ConfigurationError, match="finite"):
            problem([0.1], [1.0], 10, float("inf"))

    def test_rejects_fractional_jobs(self):
        with pytest.raises(ConfigurationError, match="whole number"):
            problem([0.1], [1.0], 10.9, 5.0)
        assert problem([0.1], [1.0], 10.0, 5.0).jobs == 10

    def test_safety_margin_shrinks_deadline(self):
        p = problem([0.1], [1.0], 10, 10.0, margin=0.1)
        assert p.effective_deadline == pytest.approx(9.0)

    def test_check_feasible(self):
        with pytest.raises(InfeasibleError):
            problem([1.0], [1.0], 10, 5.0).check_feasible()
        problem([0.4], [1.0], 10, 5.0).check_feasible()  # no raise


class TestGreedy:
    def test_picks_cheapest_feasible_uniform_pace(self):
        # budget/job = 0.5: config 1 (0.4s, 2J) feasible, config 2 (0.6s, 1J) not.
        counts = solve_schedule_greedy(problem([0.4, 0.6, 0.2], [2.0, 1.0, 5.0], 10, 5.0))
        assert counts.tolist() == [10, 0, 0]

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            solve_schedule_greedy(problem([0.6], [1.0], 10, 5.0))


class TestPairsAndExact:
    def test_mixture_beats_single_config(self):
        # Fast expensive (0.2s, 5J) + slow cheap (0.5s, 1J), W=10, D=3.5:
        # all-fast = 50 J; mixing is much better.
        p = problem([0.2, 0.5], [5.0, 1.0], 10, 3.5)
        single = p.totals(solve_schedule_greedy(p))[1]
        mixed = p.totals(solve_schedule_pairs(p))[1]
        assert mixed < single
        lat, _ = p.totals(solve_schedule_pairs(p))
        assert lat <= 3.5 + 1e-9

    def test_pair_solution_exact_count(self):
        # D = 3.5, mixing: n_slow <= (3.5 - 10*0.2)/(0.5-0.2) = 5
        p = problem([0.2, 0.5], [5.0, 1.0], 10, 3.5)
        counts = solve_schedule_pairs(p)
        assert counts.tolist() == [5, 5]

    def test_exact_never_worse_than_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            k = int(rng.integers(2, 12))
            lat = rng.uniform(0.1, 1.0, size=k)
            en = rng.uniform(1.0, 8.0, size=k)
            jobs = int(rng.integers(5, 120))
            deadline = float(jobs * rng.uniform(lat.min(), lat.max()))
            if lat.min() * jobs > deadline:
                continue
            p = problem(lat, en, jobs, deadline)
            e_pairs = p.totals(solve_schedule_pairs(p))[1]
            e_exact = p.totals(solve_schedule(p))[1]
            assert e_exact <= e_pairs + 1e-9

    def test_exact_solution_is_feasible(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            k = int(rng.integers(2, 20))
            lat = rng.uniform(0.05, 0.5, size=k)
            en = rng.uniform(0.5, 6.0, size=k)
            jobs = int(rng.integers(10, 200))
            deadline = float(jobs * rng.uniform(lat.min() * 1.01, lat.max()))
            p = problem(lat, en, jobs, deadline)
            counts = solve_schedule(p)
            assert counts.sum() == jobs
            assert np.all(counts >= 0)
            assert p.totals(counts)[0] <= p.effective_deadline + 1e-9

    def test_tight_deadline_forces_fastest(self):
        p = problem([0.2, 0.5], [5.0, 1.0], 10, 10 * 0.2 * 1.001)
        counts = solve_schedule(p)
        assert counts.tolist() == [10, 0]

    def test_loose_deadline_picks_cheapest(self):
        p = problem([0.2, 0.5], [5.0, 1.0], 10, 100.0)
        counts = solve_schedule(p)
        assert counts.tolist() == [0, 10]

    def test_duplicate_configs_handled(self):
        p = problem([0.3, 0.3, 0.3], [2.0, 2.0, 2.0], 7, 10.0)
        counts = solve_schedule(p)
        assert counts.sum() == 7

    def test_single_candidate(self):
        p = problem([0.3], [2.0], 5, 2.0)
        assert solve_schedule(p).tolist() == [5]

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            solve_schedule(problem([0.5], [1.0], 10, 4.0))
