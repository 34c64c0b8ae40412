"""Reference general LP/MILP solvers, kept as test oracles.

The library solves exactly one integer program, Eqn. 1, with the
structure-aware exact search in :mod:`repro.ilp.schedule`.  These general
solvers are what it used to run: a dense two-phase primal simplex with
dual-simplex warm starts, and an LP-relaxation branch-and-bound for mixed
integer programs.  They live here only as a scipy-free cross-check of that
search (``tests/ilp/test_exactness.py``) and are themselves checked against
scipy in ``test_simplex.py`` and ``test_branch_and_bound.py``.

All problems are minimization over non-negative variables:

    ``min c @ x   s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0``

with optional per-variable upper bounds and (for
:class:`IntegerProgram`) integrality flags.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import ConfigurationError, OptimizationError
from repro.obs import runtime as obs
from repro.obs.metrics import TimerSpan

class SolutionStatus(enum.Enum):
    """Terminal state of a solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class SimplexBasis:
    """An optimal simplex basis, for warm-starting closely related solves.

    ``columns[i]`` is the basic column of constraint row ``i`` in the
    solver's stacked row order (inequality rows first, then equalities):
    structural variables are ``< n_vars``, slack of inequality row ``j``
    is ``n_vars + j``.  ``n_ub_rows`` records how many inequality rows
    (including expanded per-variable upper bounds) the producing solve
    had, so a consumer can detect that exactly one branching row was
    appended and remap the slack indices.
    """

    columns: tuple[int, ...]
    n_ub_rows: int


@dataclass(frozen=True)
class Solution:
    """Result of an LP or MILP solve."""

    status: SolutionStatus
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    #: Branch-and-bound node count (MILP) or simplex pivots (LP).
    work: int = 0
    #: The optimal basis of an LP solve (when cleanly extractable);
    #: branch-and-bound seeds child solves from the parent's basis.
    basis: Optional[SimplexBasis] = None

    @property
    def is_optimal(self) -> bool:
        return self.status is SolutionStatus.OPTIMAL


def _as_matrix(a: Optional[ArrayLike], n_vars: int, name: str) -> np.ndarray:
    if a is None:
        return np.zeros((0, n_vars))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[1] != n_vars:
        raise ConfigurationError(f"{name} has {a.shape[1]} columns, expected {n_vars}")
    return a


def _as_vector(b: Optional[ArrayLike], n_rows: int, name: str) -> np.ndarray:
    if b is None:
        return np.zeros(0)
    b = np.asarray(b, dtype=float).ravel()
    if b.size != n_rows:
        raise ConfigurationError(f"{name} has {b.size} entries, expected {n_rows}")
    return b


@dataclass
class LinearProgram:
    """``min c @ x`` over ``x >= 0`` with inequality/equality constraints.

    ``upper_bounds`` (optional) adds ``x_i <= u_i`` rows at solve time;
    use ``np.inf`` for unbounded variables.
    """

    c: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    upper_bounds: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).ravel()
        if self.c.size == 0:
            raise ConfigurationError("a linear program needs at least one variable")
        n = self.c.size
        self.a_ub = _as_matrix(self.a_ub, n, "a_ub")
        self.b_ub = _as_vector(self.b_ub, self.a_ub.shape[0], "b_ub")
        self.a_eq = _as_matrix(self.a_eq, n, "a_eq")
        self.b_eq = _as_vector(self.b_eq, self.a_eq.shape[0], "b_eq")
        if self.upper_bounds is not None:
            self.upper_bounds = np.asarray(self.upper_bounds, dtype=float).ravel()
            if self.upper_bounds.size != n:
                raise ConfigurationError(
                    f"upper_bounds has {self.upper_bounds.size} entries, expected {n}"
                )
            if np.any(self.upper_bounds < 0):
                raise ConfigurationError("upper bounds must be non-negative")

    @property
    def n_vars(self) -> int:
        return self.c.size

    def with_bound(self, var: int, *, upper: Optional[float] = None, lower: Optional[float] = None) -> "LinearProgram":
        """A copy with one extra single-variable bound row (for branching)."""
        a_ub = self.a_ub
        b_ub = self.b_ub
        rows = []
        rhs = []
        if upper is not None:
            row = np.zeros(self.n_vars)
            row[var] = 1.0
            rows.append(row)
            rhs.append(float(upper))
        if lower is not None:
            row = np.zeros(self.n_vars)
            row[var] = -1.0
            rows.append(row)
            rhs.append(-float(lower))
        if not rows:
            raise ConfigurationError("with_bound needs an upper or lower bound")
        new_a = np.vstack([a_ub, np.array(rows)]) if a_ub.size else np.array(rows)
        new_b = np.concatenate([b_ub, np.array(rhs)])
        return LinearProgram(
            c=self.c.copy(),
            a_ub=new_a,
            b_ub=new_b,
            a_eq=self.a_eq.copy() if self.a_eq.size else None,
            b_eq=self.b_eq.copy() if self.b_eq.size else None,
            upper_bounds=None if self.upper_bounds is None else self.upper_bounds.copy(),
        )


@dataclass
class IntegerProgram:
    """A :class:`LinearProgram` plus per-variable integrality flags."""

    lp: LinearProgram
    integer: Sequence[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        flags = np.asarray(self.integer, dtype=bool).ravel()
        if flags.size == 0:
            flags = np.ones(self.lp.n_vars, dtype=bool)
        if flags.size != self.lp.n_vars:
            raise ConfigurationError(
                f"integrality flags have {flags.size} entries, expected {self.lp.n_vars}"
            )
        self.integer = flags

    @property
    def n_vars(self) -> int:
        return self.lp.n_vars


# -- dense two-phase simplex --------------------------------------------------

_EPS = 1e-9
#: Feasibility/optimality verification tolerance for warm-started solves.
_FEAS_TOL = 1e-7


def solve_lp(
    problem: LinearProgram,
    max_pivots: int = 10_000,
    warm_start: Optional[SimplexBasis] = None,
) -> Solution:
    """Solve a linear program with the two-phase primal simplex method.

    ``warm_start`` may carry the optimal basis of a *parent* problem that
    differs from this one by exactly one inequality row appended at the
    end of its original ``a_ub`` (the branch-and-bound child shape); the
    solve is then seeded by dual simplex from that basis, skipping both
    phases.  Any structural mismatch or numerical doubt falls back to the
    cold two-phase path, so the result is always the cold result.
    """
    c = problem.c
    a_ub, b_ub = problem.a_ub, problem.b_ub
    if problem.upper_bounds is not None:
        finite = np.isfinite(problem.upper_bounds)
        if np.any(finite):
            rows = np.eye(problem.n_vars)[finite]
            a_ub = np.vstack([a_ub, rows]) if a_ub.size else rows
            b_ub = np.concatenate([b_ub, problem.upper_bounds[finite]])
    if warm_start is not None:
        if obs.enabled():
            obs.count("ilp.lp_warm_attempts")
        warm = _warm_solve(problem, c, a_ub, b_ub, warm_start, max_pivots)
        if warm is not None:
            if obs.enabled():
                obs.count("ilp.lp_warm_hits")
            return warm
    tableau, basis, n_structural, n_slack = _build_phase1(
        c, a_ub, b_ub, problem.a_eq, problem.b_eq
    )
    pivots = 0

    # ---- phase 1: minimize the sum of artificial variables ----
    n_artificial = tableau.shape[1] - 1 - n_structural - n_slack
    if n_artificial > 0:
        status, extra = _iterate(tableau, basis, max_pivots)
        pivots += extra
        if status is not SolutionStatus.OPTIMAL:
            return Solution(status=SolutionStatus.ITERATION_LIMIT, work=pivots)
        if tableau[-1, -1] < -1e-7:
            return Solution(status=SolutionStatus.INFEASIBLE, work=pivots)
        _drive_out_artificials(tableau, basis, n_structural + n_slack)

    # ---- phase 2: original objective over structural + slack columns ----
    n_cols = n_structural + n_slack
    phase2 = np.zeros((tableau.shape[0], n_cols + 1))
    phase2[:-1, :n_cols] = tableau[:-1, :n_cols]
    phase2[:-1, -1] = tableau[:-1, -1]
    objective = np.zeros(n_cols + 1)
    objective[:n_structural] = c
    phase2[-1, :] = objective
    # Express the objective in terms of the current basis (reduced costs).
    for row, var in enumerate(basis):
        if var < n_cols and abs(phase2[-1, var]) > _EPS:
            phase2[-1, :] -= phase2[-1, var] * phase2[row, :]
    status, extra = _iterate(phase2, basis, max_pivots)
    pivots += extra
    if status is not SolutionStatus.OPTIMAL:
        return Solution(status=status, work=pivots)

    x = np.zeros(n_cols)
    for row, var in enumerate(basis):
        if var < n_cols:
            x[var] = phase2[row, -1]
    solution = x[:n_structural]
    return Solution(
        status=SolutionStatus.OPTIMAL,
        x=solution,
        objective=float(c @ solution),
        work=pivots,
        basis=_extract_basis(basis, n_structural, n_slack),
    )


def _extract_basis(
    basis: list[Optional[int]], n_structural: int, n_slack: int
) -> Optional[SimplexBasis]:
    """Record the final basis, or ``None`` if it is not cleanly reusable.

    A basis still holding an artificial column (redundant constraint row)
    or an unassigned row is skipped: warm starts must never inherit
    phase-1 bookkeeping.
    """
    columns = []
    for var in basis:
        if var is None or var >= n_structural + n_slack:
            return None
        columns.append(int(var))
    return SimplexBasis(columns=tuple(columns), n_ub_rows=n_slack)


def _warm_solve(
    problem: LinearProgram,
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    warm: SimplexBasis,
    max_pivots: int,
) -> Optional[Solution]:
    """Dual-simplex solve seeded from a parent basis; ``None`` = fall back.

    The parent's optimal basis stays *dual* feasible after one inequality
    row is appended (the objective did not change), while the appended
    row's own slack completes it to a full basis that may be primal
    infeasible — exactly the dual simplex starting point.  The final
    solution is verified against the problem's constraints before being
    returned; every doubt (singular rebuild, lost dual feasibility, pivot
    budget, infeasibility signal) returns ``None`` so the cold two-phase
    path decides.
    """
    n = c.size
    a_eq, b_eq = problem.a_eq, problem.b_eq
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    # The branch row is the last row of the *unexpanded* a_ub; expanded
    # upper-bound rows follow it, in the same order as in the parent.
    k = problem.a_ub.shape[0] - 1 if problem.a_ub is not None else -1
    if k < 0 or warm.n_ub_rows != m_ub - 1 or len(warm.columns) != m - 1:
        return None

    def remap(var: int) -> int:
        if var < n:
            return var
        slack = var - n
        return n + slack if slack < k else n + slack + 1

    columns = [remap(v) for v in warm.columns[:k]]
    columns.append(n + k)  # the branch row starts basic in its own slack
    columns.extend(remap(v) for v in warm.columns[k:])

    a = np.vstack([a_ub, a_eq]) if m else np.zeros((0, n))
    b = np.concatenate([b_ub, b_eq])
    tableau = np.zeros((m + 1, n + m_ub + 1))
    tableau[:m, :n] = a
    for i in range(m_ub):
        tableau[i, n + i] = 1.0
    tableau[:m, -1] = b
    tableau[-1, :n] = c
    basis: list[Optional[int]] = list(columns)
    for row, var in enumerate(columns):
        if abs(tableau[row, var]) < _EPS:
            return None  # proposed basis is (numerically) singular here
        _pivot(tableau, row, var)
    if np.any(tableau[-1, :-1] < -_FEAS_TOL):
        return None  # dual feasibility lost; cold primal handles it

    pivots = 0
    while pivots < max_pivots:
        rhs = tableau[:m, -1]
        leaving = int(np.argmin(rhs))
        if rhs[leaving] >= -_EPS:
            break
        row_vals = tableau[leaving, :-1]
        negative = np.flatnonzero(row_vals < -_EPS)
        if negative.size == 0:
            return None  # dual unbounded => primal infeasible; let cold confirm
        ratios = np.full(row_vals.size, np.inf)
        ratios[negative] = tableau[-1, negative] / -row_vals[negative]
        entering = int(np.argmin(ratios))
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        pivots += 1
    else:
        return None

    status, extra = _iterate(tableau, basis, max_pivots)
    pivots += extra
    if status is not SolutionStatus.OPTIMAL:
        return None
    x = np.zeros(n + m_ub)
    for row, var in enumerate(basis):
        if var is not None:
            x[var] = tableau[row, -1]
    solution = x[:n]
    if np.any(solution < -_FEAS_TOL):
        return None
    if a_ub.size and np.any(a_ub @ solution - b_ub > _FEAS_TOL):
        return None
    if a_eq.size and np.any(np.abs(a_eq @ solution - b_eq) > _FEAS_TOL):
        return None
    return Solution(
        status=SolutionStatus.OPTIMAL,
        x=solution,
        objective=float(c @ solution),
        work=pivots,
        basis=_extract_basis(basis, n, m_ub),
    )


def _build_phase1(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
) -> tuple[np.ndarray, list[Optional[int]], int, int]:
    """Assemble the phase-1 tableau; returns (tableau, basis, n_struct, n_slack)."""
    n = c.size
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    a = np.vstack([a_ub, a_eq]) if m else np.zeros((0, n))
    b = np.concatenate([b_ub, b_eq])
    # Normalize to b >= 0 (flip row signs where needed).
    flip = b < 0
    a = np.where(flip[:, None], -a, a)
    b = np.abs(b)
    # slack columns: +1 for un-flipped <= rows, -1 for flipped ones.
    slack = np.zeros((m, m_ub))
    for i in range(m_ub):
        slack[i, i] = -1.0 if flip[i] else 1.0
    # Rows needing artificials: all eq rows, and flipped <= rows (their
    # slack enters with -1 so it cannot serve as the initial basis).
    needs_artificial = [i for i in range(m) if i >= m_ub or flip[i]]
    n_art = len(needs_artificial)
    art = np.zeros((m, n_art))
    for j, i in enumerate(needs_artificial):
        art[i, j] = 1.0
    tableau = np.zeros((m + 1, n + m_ub + n_art + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m_ub] = slack
    tableau[:m, n + m_ub : n + m_ub + n_art] = art
    tableau[:m, -1] = b
    basis: list[Optional[int]] = [None] * m
    for i in range(m_ub):
        if not flip[i]:
            basis[i] = n + i
    for j, i in enumerate(needs_artificial):
        basis[i] = n + m_ub + j
    # Phase-1 objective: minimize the sum of artificials, expressed in
    # reduced-cost form over the starting basis.
    if n_art:
        tableau[-1, n + m_ub : n + m_ub + n_art] = 1.0
        for j, i in enumerate(needs_artificial):
            tableau[-1, :] -= tableau[i, :]
    return tableau, basis, n, m_ub


def _iterate(
    tableau: np.ndarray, basis: list[Optional[int]], max_pivots: int
) -> tuple[SolutionStatus, int]:
    """Run simplex pivots until optimal/unbounded.

    Uses Dantzig's rule (most negative reduced cost) for speed, switching
    to Bland's anti-cycling rule once the pivot count suggests degeneracy.
    """
    m = tableau.shape[0] - 1
    pivots = 0
    bland_after = 20 * (m + 1)
    while pivots < max_pivots:
        costs = tableau[-1, :-1]
        if pivots < bland_after:
            entering = int(np.argmin(costs))
            if costs[entering] >= -_EPS:
                return SolutionStatus.OPTIMAL, pivots
        else:
            negative = np.flatnonzero(costs < -_EPS)
            if negative.size == 0:
                return SolutionStatus.OPTIMAL, pivots
            entering = int(negative[0])  # Bland: lowest index
        column = tableau[:m, entering]
        positive = column > _EPS
        if not np.any(positive):
            return SolutionStatus.UNBOUNDED, pivots
        ratios = np.full(m, np.inf)
        ratios[positive] = tableau[:m, -1][positive] / column[positive]
        min_ratio = ratios.min()
        # Among minimal ratios, leave the basis at the lowest basic-variable
        # index (cheap tie-breaking that also helps against cycling).
        ties = np.flatnonzero(np.abs(ratios - min_ratio) <= _EPS)
        leaving = int(min(ties, key=lambda r: basis[r]))
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        pivots += 1
    return SolutionStatus.ITERATION_LIMIT, pivots


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot on (row, col)."""
    pivot_value = tableau[row, col]
    if abs(pivot_value) < _EPS:
        raise OptimizationError(f"degenerate pivot at ({row}, {col})")
    tableau[row, :] /= pivot_value
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > _EPS:
            tableau[r, :] -= tableau[r, col] * tableau[row, :]


def _drive_out_artificials(
    tableau: np.ndarray, basis: list[Optional[int]], n_real: int
) -> None:
    """Pivot any artificial variable still basic out of the basis.

    After a feasible phase 1, basic artificials sit at zero; replace them
    with any real column having a nonzero coefficient in their row, or drop
    the (redundant) row by leaving it — its artificial stays at zero and
    phase 2 ignores artificial columns.
    """
    m = tableau.shape[0] - 1
    for row in range(m):
        if basis[row] is not None and basis[row] >= n_real:
            candidates = np.flatnonzero(np.abs(tableau[row, :n_real]) > _EPS)
            if candidates.size:
                _pivot(tableau, row, int(candidates[0]))
                basis[row] = int(candidates[0])


# -- branch-and-bound --------------------------------------------------------

_INT_TOL = 1e-6


def _fractional_var(x: np.ndarray, integer_mask: np.ndarray) -> Optional[int]:
    """Index of the most fractional integer-constrained variable, or None."""
    fractions = np.abs(x - np.round(x))
    fractions[~integer_mask] = 0.0
    worst = int(np.argmax(fractions))
    return worst if fractions[worst] > _INT_TOL else None


def solve_milp(
    problem: IntegerProgram,
    *,
    max_nodes: int = 20_000,
    incumbent: Optional[tuple[np.ndarray, float]] = None,
    gap_tol: float = 0.0,
) -> Solution:
    """Solve a MILP by LP-relaxation branch-and-bound.

    Parameters
    ----------
    problem:
        The integer program (minimization, ``x >= 0``).
    max_nodes:
        Safety cap on explored nodes; exceeding it returns
        ``ITERATION_LIMIT`` with the best incumbent found so far (if any).
    incumbent:
        Optional warm-start ``(x, objective)`` known-feasible integer
        solution; tightens pruning from the first node.
    gap_tol:
        Relative optimality tolerance: nodes whose relaxation bound cannot
        improve the incumbent by more than ``gap_tol * |incumbent|`` are
        pruned.  Zero (the default) means prove exact optimality.
    """
    if gap_tol < 0:
        raise ValueError(f"gap_tol must be >= 0, got {gap_tol}")
    integer_mask = np.asarray(problem.integer, dtype=bool)
    best_x: Optional[np.ndarray] = None
    best_obj = math.inf
    if incumbent is not None:
        best_x = np.asarray(incumbent[0], dtype=float)
        best_obj = float(incumbent[1])

    def prune_threshold() -> float:
        if not math.isfinite(best_obj):
            return math.inf
        return best_obj - gap_tol * abs(best_obj) - 1e-9

    with obs.timer("ilp.solve_seconds") as span:
        root = solve_lp(problem.lp)
        if root.status is SolutionStatus.INFEASIBLE:
            return _observed(Solution(status=SolutionStatus.INFEASIBLE, work=1), 0, span)
        if root.status is SolutionStatus.UNBOUNDED:
            return _observed(Solution(status=SolutionStatus.UNBOUNDED, work=1), 0, span)

        counter = itertools.count()  # heap tie-breaker
        heap = [(root.objective, next(counter), problem.lp, root)]
        nodes = 0
        incumbent_updates = 0
        while heap and nodes < max_nodes:
            bound, _, lp, relaxed = heapq.heappop(heap)
            nodes += 1
            if bound >= prune_threshold():
                continue  # cannot (sufficiently) improve on the incumbent
            if relaxed.x is None:
                raise OptimizationError("optimal LP relaxation carries no solution vector")
            frac = _fractional_var(relaxed.x, integer_mask)
            if frac is None:
                # Integer-feasible relaxation: new incumbent.
                x_int = relaxed.x.copy()
                x_int[integer_mask] = np.round(x_int[integer_mask])
                obj = float(problem.lp.c @ x_int)
                if obj < best_obj:
                    best_obj, best_x = obj, x_int
                    incumbent_updates += 1
                continue
            value = relaxed.x[frac]
            for child in (
                lp.with_bound(frac, upper=math.floor(value)),
                lp.with_bound(frac, lower=math.ceil(value)),
            ):
                # Seed the child's simplex from the parent's optimal basis:
                # the child differs by one appended bound row, so the dual
                # simplex usually reoptimizes in a handful of pivots.
                child_sol = solve_lp(child, warm_start=relaxed.basis)
                if child_sol.status is SolutionStatus.OPTIMAL:
                    if child_sol.objective < prune_threshold():
                        heapq.heappush(
                            heap, (child_sol.objective, next(counter), child, child_sol)
                        )

        if best_x is None:
            status = (
                SolutionStatus.ITERATION_LIMIT if nodes >= max_nodes else SolutionStatus.INFEASIBLE
            )
            return _observed(Solution(status=status, work=nodes), incumbent_updates, span)
        status = SolutionStatus.OPTIMAL if nodes < max_nodes or not heap else SolutionStatus.ITERATION_LIMIT
        return _observed(
            Solution(status=status, x=best_x, objective=best_obj, work=nodes),
            incumbent_updates,
            span,
        )


def _observed(solution: Solution, incumbent_updates: int, span: TimerSpan) -> Solution:
    """Emit the ``ilp.solve`` event/metrics for one finished MILP solve."""
    if obs.enabled():
        obs.count("ilp.solves")
        obs.count("ilp.nodes_expanded", solution.work)
        obs.emit(
            "ilp.solve",
            status=solution.status.value,
            nodes=solution.work,
            incumbent_updates=incumbent_updates,
            objective=solution.objective,
        )
    return solution
