"""Pareto dominance utilities (minimization convention throughout).

Matches the paper's §3.2: a point ``y1`` is dominated by ``y2`` iff ``y2``
is no worse in every objective and strictly better in at least one.  The
Pareto *set* is the set of non-dominated inputs; its image is the Pareto
*front*.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import OptimizationError


def require_objectives(latency: float, energy: float) -> tuple[float, float]:
    """One measured ``(latency, energy)`` pair, checked finite and positive.

    NaN passes a ``<= 0`` test and would surface only at the next GP fit,
    as a bare scipy ``ValueError``; this names the field instead.
    """
    for name, value in (("latency", latency), ("energy", energy)):
        if not (math.isfinite(value) and value > 0):
            raise OptimizationError(
                f"{name} must be a finite positive number, got {value!r}"
            )
    return float(latency), float(energy)


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether objective vector ``a`` Pareto-dominates ``b`` (minimization)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def pareto_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows of an ``(n, m)`` objective matrix.

    Duplicate rows are all kept (none strictly dominates the other).  Uses
    an O(n log n) sweep for the bi-objective case and an O(n^2) check
    otherwise.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, m = points.shape
    if n == 0:
        return np.zeros(0, dtype=bool)
    if m < 2:
        raise OptimizationError("pareto_mask needs at least 2 objectives")
    if m == 2:
        return _pareto_mask_2d(points)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        others = np.delete(np.arange(n), i)
        dominated = np.all(points[others] <= points[i], axis=1) & np.any(
            points[others] < points[i], axis=1
        )
        if np.any(dominated):
            mask[i] = False
    return mask


def _pareto_mask_2d(points: np.ndarray) -> np.ndarray:
    """Sweep-based non-dominated mask for two objectives, in array form.

    Sorted by first objective ascending, ties by second ascending, any
    dominator of a point comes before it.  A point is kept when its second
    objective beats the best seen so far (the running minimum before it,
    ``inf`` at the start, NaNs skipped), or when it exactly duplicates the
    point that set that best: duplicates are mutually non-dominating.
    """
    n = points.shape[0]
    order = np.lexsort((points[:, 1], points[:, 0]))
    y1 = points[order, 0]
    y2 = points[order, 1]
    best = np.fmin.accumulate(np.concatenate(([np.inf], y2[:-1])))
    improves = y2 < best
    # The point that set each position's best: the last improver before it.
    setter = np.maximum.accumulate(np.where(improves, np.arange(n), -1))
    setter = np.concatenate(([-1], setter[:-1]))
    best_y1 = np.where(setter >= 0, y1[setter], np.inf)
    keep = improves | ((y2 == best) & (y1 == best_y1))
    mask = np.zeros(n, dtype=bool)
    mask[order] = keep
    return mask


def pareto_front(points: np.ndarray) -> np.ndarray:
    """The non-dominated rows of ``points``, sorted by the first objective."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    front = points[pareto_mask(points)]
    if front.size == 0:
        return front
    order = np.lexsort((front[:, 1], front[:, 0]))
    return front[order]


def crowding_distance(front: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of each front point (boundaries get inf).

    Useful for picking well-spread subsets of an approximated front.
    """
    front = np.atleast_2d(np.asarray(front, dtype=float))
    n, m = front.shape
    if n == 0:
        return np.zeros(0)
    distances = np.zeros(n)
    for j in range(m):
        order = np.argsort(front[:, j])
        span = front[order[-1], j] - front[order[0], j]
        distances[order[0]] = np.inf
        distances[order[-1]] = np.inf
        if span <= 0 or n < 3:
            continue
        gaps = (front[order[2:], j] - front[order[:-2], j]) / span
        distances[order[1:-1]] += gaps
    return distances
