"""The Eqn. 1 solver is exact: brute force, a general MILP and HiGHS agree.

``solve_schedule`` must return a minimum-energy plan, not one within a
gap, and its ``ilp.solve`` event must say ``"optimal"`` only when the
search proved it.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core import exploitation
from repro.errors import InfeasibleError
from repro.ilp.schedule import (
    MAX_NODES,
    ScheduleProblem,
    solve_schedule,
    solve_schedule_pairs,
)
from repro.obs import runtime as obs
from repro.sim.runner import run_campaign
from tests.ilp.reference_milp import IntegerProgram, LinearProgram, solve_milp


def brute_force_energy(problem):
    """Minimum energy over every count vector that runs W jobs in time."""
    k, jobs = problem.n_configs, problem.jobs
    vectors = []
    # Stars and bars: k - 1 bar positions among jobs + k - 1 slots.
    for bars in itertools.combinations(range(jobs + k - 1), k - 1):
        edges = (-1, *bars, jobs + k - 1)
        vectors.append([edges[i + 1] - edges[i] - 1 for i in range(k)])
    counts = np.array(vectors, dtype=float)
    fits = counts @ problem.latencies <= problem.effective_deadline
    return float((counts @ problem.energies)[fits].min())


def highs_energy(problem):
    """HiGHS's proven optimum (``mip_rel_gap=0``)."""
    k = problem.n_configs
    ref = milp(
        c=problem.energies,
        constraints=[
            LinearConstraint(problem.latencies[None, :], -np.inf, problem.effective_deadline),
            LinearConstraint(np.ones((1, k)), problem.jobs, problem.jobs),
        ],
        integrality=np.ones(k),
        bounds=Bounds(0, problem.jobs),
        options={"mip_rel_gap": 0},
    )
    assert ref.status == 0
    return float(ref.fun)


def solve_with_event(problem):
    with obs.session() as session:
        counts = solve_schedule(problem)
    (event,) = session.log.events("ilp.solve")
    return counts, event.payload


def small_instances(seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(1, 6))
        jobs = int(rng.integers(1, 13))
        lat = rng.uniform(0.05, 1.0, k)
        en = rng.uniform(0.5, 10.0, k)
        if rng.random() < 0.3:  # coarse grids: ties and exactly-met deadlines
            lat, en = np.round(lat, 1) + 0.1, np.round(en) + 1.0
        deadline = float(lat.min() * jobs * rng.uniform(1.0, 3.0))
        yield ScheduleProblem(lat, en, jobs, deadline)


def assert_feasible(problem, counts):
    assert counts.sum() == problem.jobs
    assert np.all(counts >= 0)
    assert problem.totals(counts)[0] <= problem.effective_deadline + 1e-9


class TestAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(4))
    def test_energy_equals_brute_force(self, seed):
        for problem in small_instances(seed, 150):
            counts, event = solve_with_event(problem)
            assert_feasible(problem, counts)
            assert event["status"] == "optimal"
            best = brute_force_energy(problem)
            assert problem.totals(counts)[1] == pytest.approx(best, rel=1e-12)

    def test_energy_equals_general_branch_and_bound(self):
        for problem in small_instances(7, 60):
            lp = LinearProgram(
                c=problem.energies,
                a_ub=problem.latencies[None, :],
                b_ub=[problem.effective_deadline],
                a_eq=np.ones((1, problem.n_configs)),
                b_eq=[float(problem.jobs)],
            )
            ref = solve_milp(IntegerProgram(lp), gap_tol=0.0)
            assert ref.is_optimal
            energy = problem.totals(solve_schedule(problem))[1]
            assert energy == pytest.approx(ref.objective, rel=1e-9)


class TestSolveEvent:
    def test_cheapest_fit_is_proven_at_the_root(self):
        problem = ScheduleProblem(np.array([0.2, 0.5]), np.array([5.0, 1.0]), 10, 100.0)
        counts, event = solve_with_event(problem)
        assert counts.tolist() == [0, 10]
        assert event["status"] == "optimal"
        assert event["nodes"] == 1
        assert event["incumbent_updates"] == 0
        assert event["objective"] == problem.totals(counts)[1]

    def test_improving_on_the_pair_plan_is_counted(self):
        # Four jobs, deadline 1.9: the best pair plan is 2 x 0.2 s + 2 x 0.6 s
        # (16 + 8 = 24 J); 2 x 0.2 s + 0.6 s + 0.8 s takes 1.8 s for 22 J.
        problem = ScheduleProblem(
            np.array([0.2, 0.6, 0.8]), np.array([8.0, 4.0, 2.0]), 4, 1.9
        )
        counts, event = solve_with_event(problem)
        assert problem.totals(solve_schedule_pairs(problem))[1] == 24.0
        assert counts.tolist() == [2, 1, 1]
        assert event["objective"] == 22.0
        assert event["incumbent_updates"] == 1
        assert event["status"] == "optimal"

    def test_infeasible_raises_before_any_event(self):
        problem = ScheduleProblem(np.array([0.5]), np.array([1.0]), 10, 4.0)
        with obs.session() as session:
            with pytest.raises(InfeasibleError):
                solve_schedule(problem)
        assert session.log.events("ilp.solve") == []
        assert session.metrics.counter("ilp.solves") == 0


class TestCollinearFronts:
    """Points on one line: every reduced cost is ~0, so only slack counts."""

    @staticmethod
    def front(lat):
        lat = np.asarray(lat, dtype=float)
        return lat, 12.0 - 10.0 * lat

    def test_evenly_spaced_front_is_proven_at_the_root(self):
        lat, en = self.front(np.linspace(0.1, 1.0, 10))
        problem = ScheduleProblem(lat, en, 50, 0.1 * 50 * 1.7)
        counts, event = solve_with_event(problem)
        assert_feasible(problem, counts)
        assert event["status"] == "optimal"
        assert event["nodes"] == 1

    def test_irregular_front_stops_at_the_node_budget(self):
        # Irregular spacing makes Eqn. 1 a cardinality-constrained subset
        # sum; the search may not prove this plan and must say so.
        lat, en = self.front([
            0.17708425, 0.18471578, 0.20230482, 0.24376502, 0.31312946,
            0.48981425, 0.53114617, 0.62394583, 0.76111944, 0.82114702,
        ])
        problem = ScheduleProblem(lat, en, 50, float(lat.min()) * 50 * 1.7)
        counts, event = solve_with_event(problem)
        assert_feasible(problem, counts)
        pair_energy = problem.totals(solve_schedule_pairs(problem))[1]
        assert problem.totals(counts)[1] <= pair_energy
        assert event["nodes"] == MAX_NODES
        assert event["status"] == "iteration_limit"


def test_oracle_campaign_plans_match_highs(monkeypatch):
    """Every exploitation instance of a short Oracle campaign is exact.

    The campaign behind ``test_oracle_campaign_energy``: with a 0.01 %
    gap its plans sat up to 3.6e-5 above the optimum HiGHS proves.
    """
    solved = []

    def recording_solve(problem):
        counts = solve_schedule(problem)
        solved.append((problem, counts))
        return counts

    monkeypatch.setattr(exploitation, "solve_schedule", recording_solve)
    run_campaign("agx", "resnet50", "oracle", 2.0, rounds=3, seed=0, use_cache=False)
    assert len(solved) == 3
    for problem, counts in solved:
        assert_feasible(problem, counts)
        assert problem.totals(counts)[1] == pytest.approx(highs_energy(problem), rel=1e-9)
