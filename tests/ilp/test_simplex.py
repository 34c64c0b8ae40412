"""Unit tests for the reference two-phase simplex LP solver."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.errors import ConfigurationError
from tests.ilp.reference_milp import LinearProgram, SolutionStatus, solve_lp


class TestKnownInstances:
    def test_trivial_minimum_at_origin(self):
        lp = LinearProgram(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0])
        sol = solve_lp(lp)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(0.0)

    def test_textbook_maximization_as_minimization(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), 36
        lp = LinearProgram(
            c=[-3.0, -5.0],
            a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
            b_ub=[4.0, 12.0, 18.0],
        )
        sol = solve_lp(lp)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(-36.0)
        assert sol.x == pytest.approx([2.0, 6.0])

    def test_equality_constraint(self):
        # min x + 2y s.t. x + y = 3 -> (3, 0)
        lp = LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[3.0])
        sol = solve_lp(lp)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(3.0)
        assert sol.x == pytest.approx([3.0, 0.0])

    def test_negative_rhs_row_handled(self):
        # -x <= -2  means x >= 2.
        lp = LinearProgram(c=[1.0], a_ub=[[-1.0]], b_ub=[-2.0])
        sol = solve_lp(lp)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(2.0)

    def test_infeasible(self):
        lp = LinearProgram(
            c=[1.0], a_ub=[[1.0]], b_ub=[1.0], a_eq=[[1.0]], b_eq=[5.0]
        )
        assert solve_lp(lp).status is SolutionStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(c=[-1.0], a_ub=[[-1.0]], b_ub=[0.0])
        assert solve_lp(lp).status is SolutionStatus.UNBOUNDED

    def test_upper_bounds_respected(self):
        lp = LinearProgram(c=[-1.0, -1.0], upper_bounds=[2.0, 3.0])
        sol = solve_lp(lp)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(-5.0)

    def test_degenerate_problem_terminates(self):
        # Multiple redundant constraints through the optimum.
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_ub=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            b_ub=[1.0, 1.0, 1.0, 2.0],
            a_eq=[[1.0, 1.0]],
            b_eq=[2.0],
        )
        sol = solve_lp(lp)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(2.0)


class TestAgainstScipy:
    @pytest.mark.parametrize("trial", range(40))
    def test_random_instances(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.uniform(1, 5, size=m)
        use_eq = rng.random() < 0.5
        a_eq = rng.uniform(0.5, 2.0, size=(1, n)) if use_eq else None
        b_eq = np.array([rng.uniform(1, 4)]) if use_eq else None
        lp = LinearProgram(
            c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
            upper_bounds=np.full(n, 10.0),
        )
        mine = solve_lp(lp)
        ref = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=[(0, 10)] * n, method="highs",
        )
        if ref.status == 0:
            assert mine.is_optimal
            assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
            # solution must be feasible
            assert np.all(a_ub @ mine.x <= b_ub + 1e-7)
            if use_eq:
                assert a_eq @ mine.x == pytest.approx(b_eq, abs=1e-7)
        elif ref.status == 2:
            assert mine.status is SolutionStatus.INFEASIBLE


class TestModelValidation:
    def test_rejects_empty_objective(self):
        with pytest.raises(ConfigurationError):
            LinearProgram(c=[])

    def test_rejects_mismatched_matrix(self):
        with pytest.raises(ConfigurationError):
            LinearProgram(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])

    def test_rejects_mismatched_rhs(self):
        with pytest.raises(ConfigurationError):
            LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[1.0, 2.0])

    def test_rejects_negative_upper_bounds(self):
        with pytest.raises(ConfigurationError):
            LinearProgram(c=[1.0], upper_bounds=[-1.0])

    def test_with_bound_adds_rows(self):
        lp = LinearProgram(c=[1.0, 1.0])
        child = lp.with_bound(0, upper=2.0, lower=1.0)
        assert child.a_ub.shape == (2, 2)
        sol = solve_lp(child)
        assert sol.is_optimal
        assert sol.x[0] == pytest.approx(1.0)

    def test_with_bound_requires_a_bound(self):
        with pytest.raises(ConfigurationError):
            LinearProgram(c=[1.0]).with_bound(0)


class TestWarmStart:
    """Dual-simplex warm starts must reproduce the cold two-phase result."""

    def parent(self):
        return LinearProgram(
            c=[-3.0, -5.0],
            a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
            b_ub=[4.0, 12.0, 18.0],
        )

    def test_optimal_solve_exposes_a_basis(self):
        sol = solve_lp(self.parent())
        assert sol.basis is not None
        assert sol.basis.n_ub_rows == 3
        assert len(sol.basis.columns) == 3
        # only structural and slack columns, never phase-1 artificials
        assert all(var < 2 + 3 for var in sol.basis.columns)

    def test_warm_child_matches_cold_child(self):
        parent = self.parent()
        warm_basis = solve_lp(parent).basis
        child = parent.with_bound(0, upper=1.0)
        cold = solve_lp(child)
        warm = solve_lp(child, warm_start=warm_basis)
        assert warm.is_optimal and cold.is_optimal
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.x == pytest.approx(cold.x, abs=1e-9)

    def test_warm_start_counts_hits(self):
        from repro.obs import runtime as obs

        parent = self.parent()
        warm_basis = solve_lp(parent).basis
        child = parent.with_bound(0, upper=1.0)
        with obs.session() as session:
            solve_lp(child, warm_start=warm_basis)
        assert session.metrics.counter("ilp.lp_warm_attempts") == 1
        assert session.metrics.counter("ilp.lp_warm_hits") == 1

    def test_mismatched_basis_falls_back_to_cold(self):
        from tests.ilp.reference_milp import SimplexBasis

        child = self.parent().with_bound(0, upper=1.0)
        bogus = SimplexBasis(columns=(0,), n_ub_rows=0)
        sol = solve_lp(child, warm_start=bogus)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(solve_lp(child).objective, abs=1e-9)

    @pytest.mark.parametrize("trial", range(25))
    def test_random_branching_children_match_cold(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n, m = 4, 3
        lp = LinearProgram(
            c=rng.uniform(-1.0, 1.0, size=n),
            a_ub=rng.uniform(0.1, 1.0, size=(m, n)),
            b_ub=rng.uniform(1.0, 4.0, size=m),
            upper_bounds=np.full(n, 3.0),
        )
        parent = solve_lp(lp)
        assert parent.is_optimal
        if parent.basis is None:
            pytest.skip("degenerate parent basis not extractable")
        var = int(rng.integers(0, n))
        value = parent.x[var]
        for child in (
            lp.with_bound(var, upper=np.floor(value)),
            lp.with_bound(var, lower=np.ceil(value)),
        ):
            cold = solve_lp(child)
            warm = solve_lp(child, warm_start=parent.basis)
            assert warm.status is cold.status
            if cold.is_optimal:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
