"""Unit tests for the reference MILP branch-and-bound solver."""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from tests.ilp.reference_milp import IntegerProgram, LinearProgram, SolutionStatus, solve_milp


def knapsack_ip(values, weights, capacity):
    """0/1-ish knapsack as a minimization MILP (bounded x <= 1)."""
    n = len(values)
    lp = LinearProgram(
        c=-np.asarray(values, dtype=float),
        a_ub=np.asarray(weights, dtype=float)[None, :],
        b_ub=[float(capacity)],
        upper_bounds=np.ones(n),
    )
    return IntegerProgram(lp)


class TestKnownInstances:
    def test_small_knapsack(self):
        # values (6, 5, 4), weights (3, 2, 2), capacity 4 -> pick items 2+3 = 9
        sol = solve_milp(knapsack_ip([6, 5, 4], [3, 2, 2], 4))
        assert sol.is_optimal
        assert sol.objective == pytest.approx(-9.0)

    def test_integrality_changes_answer(self):
        # LP relaxation would take 4/3 of item 1; ILP must round.
        ip = knapsack_ip([6], [3], 4)
        sol = solve_milp(ip)
        assert sol.objective == pytest.approx(-6.0)
        assert sol.x[0] == pytest.approx(1.0)

    def test_infeasible_program(self):
        lp = LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[0.5], a_eq=[[1.0]], b_eq=[2.0])
        sol = solve_milp(IntegerProgram(lp))
        assert sol.status is SolutionStatus.INFEASIBLE

    def test_unbounded_program(self):
        lp = LinearProgram(c=[-1.0])
        sol = solve_milp(IntegerProgram(lp))
        assert sol.status is SolutionStatus.UNBOUNDED

    def test_mixed_integrality(self):
        # y continuous, x integer: min -x - 0.5 y, x + y <= 2.5, x <= 1.8
        lp = LinearProgram(
            c=[-1.0, -0.5],
            a_ub=[[1.0, 1.0], [1.0, 0.0]],
            b_ub=[2.5, 1.8],
        )
        sol = solve_milp(IntegerProgram(lp, integer=[True, False]))
        assert sol.is_optimal
        assert sol.x[0] == pytest.approx(1.0)
        assert sol.x[1] == pytest.approx(1.5)

    def test_warm_start_incumbent_respected(self):
        ip = knapsack_ip([6, 5, 4], [3, 2, 2], 4)
        warm_x = np.array([0.0, 1.0, 1.0])
        sol = solve_milp(ip, incumbent=(warm_x, -9.0))
        assert sol.objective == pytest.approx(-9.0)

    def test_gap_tol_accepts_near_optimal(self):
        ip = knapsack_ip([6, 5, 4], [3, 2, 2], 4)
        # An incumbent within 20% of optimal and a huge tolerance: the solver
        # may return it unchanged.
        warm_x = np.array([0.0, 1.0, 0.0])
        sol = solve_milp(ip, incumbent=(warm_x, -5.0), gap_tol=0.5)
        assert sol.objective <= -5.0 + 1e-9

    def test_gap_tol_validation(self):
        with pytest.raises(ValueError):
            solve_milp(knapsack_ip([1], [1], 1), gap_tol=-0.1)


class TestAgainstScipy:
    @pytest.mark.parametrize("trial", range(30))
    def test_random_bounded_milps(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(2, 7))
        c = rng.normal(size=n)
        a = rng.uniform(0.1, 1.0, size=(2, n))
        b = rng.uniform(n * 0.3, n * 0.8, size=2)
        lp = LinearProgram(c=c, a_ub=a, b_ub=b, upper_bounds=np.full(n, 3.0))
        sol = solve_milp(IntegerProgram(lp))
        ref = milp(
            c=c,
            constraints=[LinearConstraint(a, -np.inf, b)],
            integrality=np.ones(n),
            bounds=Bounds(0, 3),
        )
        assert ref.status == 0 and sol.is_optimal
        assert sol.objective == pytest.approx(ref.fun, abs=1e-6)
        assert np.allclose(sol.x, np.round(sol.x), atol=1e-6)
        assert np.all(a @ sol.x <= b + 1e-7)
