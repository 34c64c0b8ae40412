"""The Pareto-construction stopping condition (§4.3).

"The Pareto construction phase will continue until ... at least a certain
number of configurations (e.g. 3% of the whole space) are explored and the
EHVI value increase is less than a threshold (e.g., 1%)."

We track the hypervolume of the observed front after each phase-2 round
(w.r.t. the reference point frozen at the end of phase 1) and stop once
the latest round's *relative* hypervolume increase falls under the
threshold — the realized counterpart of the expected increase the EHVI
acquisition predicts.
"""

from __future__ import annotations


from repro.types import require_fraction, require_whole


class StoppingCondition:
    """Coverage + diminishing-hypervolume stopping rule."""

    def __init__(self, min_explored: int, hv_improvement_threshold: float) -> None:
        self.min_explored = require_whole("min_explored", min_explored)
        self.hv_improvement_threshold = require_fraction(
            "hv_improvement_threshold", hv_improvement_threshold
        )
        self._history: list[float] = []

    @property
    def history(self) -> list[float]:
        """Recorded hypervolume trajectory (one entry per phase-2 round)."""
        return list(self._history)

    def record_hypervolume(self, hv: float) -> None:
        """Record the front hypervolume after a phase-2 round."""
        if hv < 0:
            raise ValueError(f"hypervolume cannot be negative: {hv}")
        if self._history and hv < self._history[-1] - 1e-12:
            # Hypervolume w.r.t. a fixed reference is monotone in the
            # observation set; a decrease means the reference moved.
            raise ValueError(
                f"hypervolume decreased ({self._history[-1]} -> {hv}); "
                "the reference point must stay frozen during phase 2"
            )
        self._history.append(float(hv))

    def last_relative_increase(self) -> float:
        """Relative HV gain of the latest recorded round (inf if unknown)."""
        if len(self._history) < 2:
            return float("inf")
        previous, latest = self._history[-2], self._history[-1]
        if previous <= 0:
            return float("inf")
        return (latest - previous) / previous

    def should_stop(self, n_explored: int) -> bool:
        """Whether phase 2 may end: coverage met and HV gain has flattened."""
        if n_explored < self.min_explored:
            return False
        return self.last_relative_increase() < self.hv_improvement_threshold
