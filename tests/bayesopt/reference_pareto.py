"""The scalar two-objective Pareto sweep: the test oracle for the mask.

One Python step per point, in (first objective, second objective)
order: a point is kept when its second objective beats the best so far,
or when it exactly duplicates the point holding that best.
:func:`repro.bayesopt.pareto._pareto_mask_2d` computes the same mask
with running-minimum array expressions.
"""

from __future__ import annotations

import numpy as np


def reference_pareto_mask_2d(points: np.ndarray) -> np.ndarray:
    """Non-dominated mask of an ``(n, 2)`` objective matrix (minimization)."""
    n = points.shape[0]
    # Sort by first objective ascending, ties broken by second ascending, so
    # that any dominator of a point appears before it in the sweep.
    order = np.lexsort((points[:, 1], points[:, 0]))
    mask = np.zeros(n, dtype=bool)
    best_y2 = np.inf
    best_y1_at = np.inf
    for idx in order:
        y1, y2 = points[idx]
        if y2 < best_y2:
            best_y2, best_y1_at = y2, y1
            mask[idx] = True
        elif y2 == best_y2 and y1 == best_y1_at:
            # exact duplicate of the current best: mutually non-dominating.
            mask[idx] = True
    return mask
