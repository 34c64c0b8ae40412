"""Property-based tests for the schedule solver against scipy's MILP."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.ilp.schedule import ScheduleProblem, solve_schedule


@st.composite
def schedule_instances(draw):
    k = draw(st.integers(2, 10))
    lat = np.array([draw(st.floats(0.05, 1.0)) for _ in range(k)])
    en = np.array([draw(st.floats(0.5, 10.0)) for _ in range(k)])
    jobs = draw(st.integers(2, 80))
    slack = draw(st.floats(1.01, 3.0))
    deadline = float(lat.min() * jobs * slack)
    return lat, en, jobs, deadline


@given(instance=schedule_instances())
@settings(max_examples=60, deadline=None)
def test_schedule_matches_scipy_milp_within_gap(instance):
    lat, en, jobs, deadline = instance
    problem = ScheduleProblem(lat, en, jobs, deadline)
    counts = solve_schedule(problem)
    total_lat, total_en = problem.totals(counts)
    assert counts.sum() == jobs
    assert total_lat <= problem.effective_deadline + 1e-9

    k = lat.size
    ref = milp(
        c=en,
        constraints=[
            LinearConstraint(lat[None, :], -np.inf, deadline),
            LinearConstraint(np.ones((1, k)), jobs, jobs),
        ],
        integrality=np.ones(k),
        bounds=Bounds(0, jobs),
        options={"mip_rel_gap": 0},
    )
    assert ref.status == 0
    # Both solvers prove optimality, so the energies agree to float noise.
    assert abs(total_en - ref.fun) <= 1e-9 * ref.fun


@given(instance=schedule_instances(), margin=st.floats(0.0, 0.2))
@settings(max_examples=40, deadline=None)
def test_safety_margin_never_increases_allowed_latency(instance, margin):
    lat, en, jobs, deadline = instance
    relaxed = ScheduleProblem(lat, en, jobs, deadline)
    guarded = ScheduleProblem(lat, en, jobs, deadline, safety_margin=margin)
    try:
        counts = solve_schedule(guarded)
    except Exception:
        return  # margin can make the instance infeasible; that is correct
    assert guarded.totals(counts)[0] <= relaxed.effective_deadline + 1e-9


@given(instance=schedule_instances(), scale=st.floats(0.5, 2.0))
@settings(max_examples=40, deadline=None)
def test_energy_scaling_equivariance(instance, scale):
    # Scaling all energies scales the optimal energy but not the schedule's
    # feasibility structure.
    lat, en, jobs, deadline = instance
    base = ScheduleProblem(lat, en, jobs, deadline)
    scaled = ScheduleProblem(lat, en * scale, jobs, deadline)
    e_base = base.totals(solve_schedule(base))[1]
    e_scaled = scaled.totals(solve_schedule(scaled))[1]
    assert abs(e_scaled - scale * e_base) <= 1e-9 * max(e_scaled, scale * e_base)
