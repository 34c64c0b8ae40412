"""The exploitation-phase schedule problem (the inner problem of Eqn. 1).

For one round, given candidate configurations with per-job latency ``T_k``
and energy ``E_k``, the number of jobs ``W`` and the round deadline ``D``:

    ``min sum_k n_k E_k``
    ``s.t. sum_k n_k T_k <= D,  sum_k n_k = W,  n_k in Z>=0``

The program has only two rows, and :func:`solve_schedule` solves it
exactly by exploiting that.  Its LP relaxation mixes the two vertices
``a`` and ``b`` of the lower convex hull of ``(T_k, E_k)`` that bracket
the per-job budget ``D / W``.  The slope ``lam`` of that hull edge is the
LP dual of the deadline row, so with reduced costs
``delta_k = E_k + lam T_k - (E_a + lam T_a) >= 0`` every integer plan
costs exactly

    ``LB + sum_k n_k delta_k + lam * slack``,  ``LB = W (E_a + lam T_a) - lam D``.

A best-first search over multisets of the other configurations, in
ascending sum of ``delta``, completes each with the best ``(a, b)`` split
and proves the incumbent optimal once that sum alone reaches its gap over
``LB``.  The exact-over-pairs solver (:func:`solve_schedule_pairs`) gives
the first incumbent.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, InfeasibleError
from repro.obs import runtime as obs

#: Search nodes one :func:`solve_schedule` call may visit, the root
#: included.  Workload instances need at most a few thousand; a front whose
#: points lie on one line with irregular spacing turns Eqn. 1 into a
#: cardinality-constrained subset sum, and there the search stops here and
#: says so.
MAX_NODES = 10_000

#: Relative float tolerance: a plan must beat the incumbent's energy by
#: more than this share of it to replace it or to keep a branch open.
_REL_TOL = 1e-12


@dataclass(frozen=True)
class ScheduleProblem:
    """One round's schedule optimization instance.

    ``safety_margin`` shrinks the deadline by a relative amount before
    solving, leaving headroom for measurement noise and switch latency
    during execution (BoFL executes fastest-entries-first, so the margin
    rarely binds).
    """

    latencies: np.ndarray
    energies: np.ndarray
    jobs: int
    deadline: float
    safety_margin: float = 0.0

    def __post_init__(self) -> None:
        lat = np.asarray(self.latencies, dtype=float).ravel()
        en = np.asarray(self.energies, dtype=float).ravel()
        object.__setattr__(self, "latencies", lat)
        object.__setattr__(self, "energies", en)
        if lat.size == 0 or lat.size != en.size:
            raise ConfigurationError(
                f"latencies and energies must be equal-length and non-empty; "
                f"got {lat.size} and {en.size}"
            )
        if not (np.all(np.isfinite(lat)) and np.all(np.isfinite(en))):
            raise ConfigurationError("latencies and energies must be finite")
        if np.any(lat <= 0) or np.any(en <= 0):
            raise ConfigurationError("latencies and energies must be positive")
        if not float(self.jobs).is_integer() or self.jobs < 1:
            raise ConfigurationError(f"jobs must be a whole number >= 1, got {self.jobs}")
        object.__setattr__(self, "jobs", int(self.jobs))
        if not (math.isfinite(self.deadline) and self.deadline > 0):
            raise ConfigurationError(
                f"deadline must be positive and finite, got {self.deadline}"
            )
        if not 0.0 <= self.safety_margin < 1.0:
            raise ConfigurationError(
                f"safety_margin must lie in [0, 1), got {self.safety_margin}"
            )

    @property
    def n_configs(self) -> int:
        return self.latencies.size

    @property
    def effective_deadline(self) -> float:
        return self.deadline * (1.0 - self.safety_margin)

    def check_feasible(self) -> None:
        """Raise :class:`InfeasibleError` if even the fastest pace misses."""
        fastest = float(self.latencies.min()) * self.jobs
        if fastest > self.effective_deadline:
            raise InfeasibleError(
                f"{self.jobs} jobs need at least {fastest:.3f}s at the fastest "
                f"candidate but only {self.effective_deadline:.3f}s remain"
            )

    def totals(self, counts: np.ndarray) -> tuple[float, float]:
        """``(total latency, total energy)`` of a counts vector."""
        counts = np.asarray(counts, dtype=float)
        return (
            float(counts @ self.latencies),
            float(counts @ self.energies),
        )


def solve_schedule_greedy(problem: ScheduleProblem) -> np.ndarray:
    """Cheapest single configuration that meets the deadline at uniform pace.

    O(K); used as a fallback and as the baseline for ablation
    ``bench_abl_exploit`` (single-config vs ILP mixture).
    """
    problem.check_feasible()
    budget_per_job = problem.effective_deadline / problem.jobs
    feasible = problem.latencies <= budget_per_job
    counts = np.zeros(problem.n_configs, dtype=int)
    if np.any(feasible):
        candidates = np.flatnonzero(feasible)
        pick = candidates[np.argmin(problem.energies[feasible])]
    else:
        pick = int(np.argmin(problem.latencies))
    counts[pick] = problem.jobs
    return counts


def solve_schedule_pairs(problem: ScheduleProblem) -> np.ndarray:
    """Exact optimum over schedules mixing at most two configurations.

    For a pair (fast ``i``, slow-but-cheaper ``j``) the time constraint
    caps the slow count at ``floor((D - W*T_i) / (T_j - T_i))``; the energy
    is linear in that count, so the best pair schedule is closed-form.
    Fully vectorized over the K x K pair grid.
    """
    problem.check_feasible()
    lat, en = problem.latencies, problem.energies
    jobs, deadline = problem.jobs, problem.effective_deadline
    k = problem.n_configs
    best_counts = solve_schedule_greedy(problem)
    best_energy = problem.totals(best_counts)[1]

    anchor_ok = lat * jobs <= deadline  # configs that can anchor a schedule
    # Single-config schedules.
    if np.any(anchor_ok):
        singles = np.where(anchor_ok, en * jobs, np.inf)
        i_best = int(np.argmin(singles))
        if singles[i_best] < best_energy - 1e-12:
            best_energy = float(singles[i_best])
            best_counts = np.zeros(k, dtype=int)
            best_counts[i_best] = jobs

    # Pair schedules: anchor i (fast, feasible alone), filler j (slower and
    # cheaper).  Grid of shape (k, k) with i along axis 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = deadline - jobs * lat[:, None]  # time freed by anchoring at i
        gap = lat[None, :] - lat[:, None]  # extra time per job moved to j
        n_j = np.floor(slack / gap + 1e-12)
    valid = (
        anchor_ok[:, None]
        & (gap > 0)
        & (en[None, :] < en[:, None])
        & np.isfinite(n_j)
    )
    n_j = np.clip(np.where(valid, n_j, 0.0), 0, jobs).astype(int)
    energy = en[:, None] * (jobs - n_j) + en[None, :] * n_j
    energy = np.where(valid & (n_j > 0), energy, np.inf)
    flat = int(np.argmin(energy))
    i, j = divmod(flat, k)
    if energy[i, j] < best_energy - 1e-12:
        best_energy = float(energy[i, j])
        best_counts = np.zeros(k, dtype=int)
        best_counts[i] = jobs - n_j[i, j]
        best_counts[j] = n_j[i, j]
    return best_counts


def solve_schedule(problem: ScheduleProblem) -> np.ndarray:
    """Optimal schedule by branch-and-bound on the LP's reduced costs.

    This is the solver the BoFL controller uses in the exploitation phase,
    in place of the paper's Gurobi branch-and-bound (§5.2).  Each solve
    emits one ``ilp.solve`` event.  Its ``status`` is ``"optimal"`` when the
    search proved the plan optimal, and ``"iteration_limit"`` when
    :data:`MAX_NODES` ran out first; the plan is then the best one found,
    never worse than the pair plan of :func:`solve_schedule_pairs`.
    """
    problem.check_feasible()
    with obs.timer("ilp.solve_seconds"):
        counts, nodes, updates, proven = _branch_and_bound(problem)
    if obs.enabled():
        obs.count("ilp.solves")
        obs.count("ilp.nodes_expanded", nodes)
        obs.emit(
            "ilp.solve",
            status="optimal" if proven else "iteration_limit",
            nodes=nodes,
            incumbent_updates=updates,
            objective=problem.totals(counts)[1],
        )
    return counts


def _branch_and_bound(problem: ScheduleProblem) -> tuple[np.ndarray, int, int, bool]:
    """``(counts, nodes, incumbent updates, proven optimal)`` of one solve."""
    lat, en = problem.latencies, problem.energies
    jobs, deadline = problem.jobs, problem.effective_deadline
    # Every tie breaks in this fixed order over (T, E, index); a point equal
    # to its predecessor in both objectives adds nothing and is dropped.
    order = np.lexsort((np.arange(lat.size), en, lat))
    repeat = (np.diff(lat[order]) == 0) & (np.diff(en[order]) == 0)
    order = order[np.concatenate(([True], ~repeat))]

    # The fastest of the cheapest points: if it fits, W * E_min is optimal.
    cheapest = int(order[np.argmin(en[order])])
    if lat[cheapest] * jobs <= deadline:
        counts = np.zeros(lat.size, dtype=int)
        counts[cheapest] = jobs
        return counts, 1, 0, True

    # Lower convex hull from the fastest point down to the cheapest one.
    hull: list[int] = []
    for k in order:
        while len(hull) >= 2:
            o, p = hull[-2], hull[-1]
            cross = (lat[p] - lat[o]) * (en[k] - en[o]) - (en[p] - en[o]) * (lat[k] - lat[o])
            if cross > 0:
                break
            hull.pop()
        hull.append(int(k))
        if k == cheapest:
            break
    # check_feasible makes the fastest point fit; the cheapest does not.
    edge = max(i for i, v in enumerate(hull) if lat[v] * jobs <= deadline)
    a, b = hull[edge], hull[edge + 1]
    t_a, e_a, e_b = float(lat[a]), float(en[a]), float(en[b])
    width = float(lat[b]) - t_a
    lam = (e_a - e_b) / width
    delta = np.maximum(en + lam * lat - (e_a + lam * t_a), 0.0)
    lower = jobs * (e_a + lam * t_a) - lam * deadline

    off = order[(order != a) & (order != b)]
    off = off[np.argsort(delta[off], kind="stable")]
    t, e, d = lat[off].tolist(), en[off].tolist(), delta[off].tolist()
    t_fast = float(lat[order[0]])
    # t_min[p]: the fastest off-edge latency at position p or later.
    t_min = np.minimum.accumulate(lat[off][::-1])[::-1].tolist()

    def complete(used: int, time: float, energy: float) -> tuple[float, int]:
        """Energy and ``n_b`` of the best (a, b) split of the jobs left."""
        left = jobs - used
        # The same float allowance as the pair plan's floor.
        room = (deadline - time - left * t_a) / width + 1e-12
        if room < 0:
            return math.inf, 0
        n_b = math.floor(room)
        if n_b > left:
            n_b = left
        return energy + (left - n_b) * e_a + n_b * e_b, n_b

    def plan(seq: tuple[Any, ...], n_b: int) -> np.ndarray:
        """Counts of the off-edge multiset ``seq`` completed with ``n_b`` on b."""
        counts = np.zeros(lat.size, dtype=int)
        while seq is not empty:
            counts[off[seq[0]]] += 1
            seq = seq[1]
        counts[a] = jobs - int(counts.sum()) - n_b
        counts[b] = n_b
        return counts

    # A multiset of off-edge positions is a cons list ``(last, rest, sum of
    # delta, time, energy)`` headed by its largest position.  Its two
    # children add another ``last`` or move ``last`` up one position, so a
    # best-first search on the sum of delta reaches each multiset exactly
    # once and never before its parent.  Every descendant of a heap entry
    # ``(sum of delta, serial, last, jobs, rest)`` keeps ``rest`` and adds a
    # job at ``last`` or later, which bounds both its energy and its time.
    empty: tuple[Any, ...] = (-1, None, 0.0, 0.0, 0.0)
    best_counts = solve_schedule_pairs(problem)
    best = problem.totals(best_counts)[1]
    nodes, updates = 1, 0
    energy, n_b = complete(0, 0.0, 0.0)
    if energy < best - _REL_TOL * best:
        best, best_counts, updates = energy, plan(empty, n_b), 1
    limit = best - _REL_TOL * best - lower
    heap: list[tuple[Any, ...]] = []
    if len(off) and d[0] < limit and t_min[0] + (jobs - 1) * t_fast <= deadline:
        heap.append((d[0], 0, 0, 1, empty))
    while heap and heap[0][0] < limit:
        if nodes == MAX_NODES:
            return best_counts, nodes, updates, False
        key, _, last, used, rest = heapq.heappop(heap)
        nodes += 1
        seq = (last, rest, key, rest[3] + t[last], rest[4] + e[last])
        if used < jobs and key + d[last] < limit:
            if seq[3] + t_min[last] + (jobs - used - 1) * t_fast <= deadline:
                heapq.heappush(heap, (key + d[last], 2 * nodes, last, used + 1, seq))
        up = last + 1
        if up < len(off) and rest[2] + d[up] < limit:
            if rest[3] + t_min[up] + (jobs - used) * t_fast <= deadline:
                heapq.heappush(heap, (rest[2] + d[up], 2 * nodes + 1, up, used, rest))
        energy, n_b = complete(used, seq[3], seq[4])
        if energy < best - _REL_TOL * best:
            best, best_counts, updates = energy, plan(seq, n_b), updates + 1
            limit = best - _REL_TOL * best - lower
    return best_counts, nodes, updates, True
