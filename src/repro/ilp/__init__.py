"""The exploitation-phase integer program (Eqn. 1), solved exactly.

The paper solves the exploitation-phase energy minimization (Eqn. 1,
restricted to the observed Pareto set) as an Integer Linear Program with
Gurobi's branch-and-bound (§5.2, "Optimization solver").  Gurobi is
proprietary, and Eqn. 1 has only two rows (the deadline and the job
count), so :mod:`repro.ilp.schedule` solves that special case natively:
an exact branch-and-bound on the LP relaxation's reduced costs, warm-started
by a closed-form pair-mixing plan.  Each solve reports whether it proved
optimality (``ilp.solve`` event, ``status``) within a fixed node budget.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.ilp.schedule import (
        ScheduleProblem,
        solve_schedule,
        solve_schedule_greedy,
        solve_schedule_pairs,
    )

__all__ = [
    "ScheduleProblem",
    "solve_schedule",
    "solve_schedule_greedy",
    "solve_schedule_pairs",
]

__getattr__, __dir__ = lazy_exports(__name__)
