"""BoFL tuning knobs, with the paper's defaults.

Every default traces to a concrete statement in §4:

* ``tau = 5 s`` — "we define tau as a reference measurement duration
  (e.g., 5s)" (§4.2).
* ``initial_sample_fraction = 1 %`` — "we sample a small group (e.g., 1% of
  the whole space) of starting points" (§4.2).
* ``min_explored_fraction = 3 %`` / ``hv_improvement_threshold = 1 %`` —
  "when at least a certain number of configurations (e.g. 3% of the whole
  space) are explored and the EHVI value increase is less than a threshold
  (e.g., 1%)" (§4.3).  We interpret "EHVI value increase" as the relative
  hypervolume increase contributed by the most recent round, which is the
  quantity EHVI estimates in expectation.
* ``max_batch_size = 10`` — "we can also set an upper threshold for the MBO
  batch size (e.g., 10 points)" (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.types import require_fraction, require_positive, require_whole


@dataclass(frozen=True)
class BoFLConfig:
    """Configuration of the BoFL controller."""

    #: Reference measurement duration per explored configuration (seconds).
    tau: float = 5.0
    #: Fraction of the space Sobol-sampled as phase-1 starting points.
    initial_sample_fraction: float = 0.01
    #: Phase-2 stopping: minimum fraction of the space explored ...
    min_explored_fraction: float = 0.03
    #: ... and maximum relative hypervolume increase per round to stop.
    hv_improvement_threshold: float = 0.01
    #: Upper bound on the MBO suggestion batch size.
    max_batch_size: int = 10
    #: Random restarts per GP hyperparameter fit.
    fit_restarts: int = 2
    #: Warm-start GP refits from the previous round's fitted
    #: hyperparameters (restart-free) instead of re-searching from the
    #: Matern52(0.5) prior every round.  Disable to force cold refits —
    #: cheaper surrogate quality, but the legacy per-round cost.
    warm_start_fits: bool = True
    #: Relative deadline headroom the exploitation planner reserves for
    #: measurement noise and DVFS switch latency.
    safety_margin: float = 0.02
    #: Master seed (sampling, GP restarts).
    seed: int = 0
    #: Disable to ablate the deadline guardian (bench_abl_guardian).
    guardian_enabled: bool = True
    #: Disable to ablate MBO: phase 2 then explores random configurations
    #: instead of EHVI suggestions (bench_abl_acquisition).
    mbo_enabled: bool = True
    #: Disable to ablate the ILP: exploitation then uses the single best
    #: feasible configuration instead of a mixture (bench_abl_exploit).
    exploit_mixture: bool = True
    #: Extension: detect stale performance models during exploitation (e.g.
    #: thermal throttling) and restart the exploration phases.
    drift_reexploration: bool = False
    #: Relative per-job latency deviation (EWMA) that triggers a restart.
    drift_threshold: float = 0.15
    #: EWMA smoothing factor for the drift detector.
    drift_smoothing: float = 0.3

    def __post_init__(self) -> None:
        require_positive("tau", self.tau)
        require_fraction("initial_sample_fraction", self.initial_sample_fraction)
        require_fraction("min_explored_fraction", self.min_explored_fraction)
        require_fraction("hv_improvement_threshold", self.hv_improvement_threshold)
        require_fraction("safety_margin", self.safety_margin)
        if self.initial_sample_fraction <= 0:
            raise ConfigurationError("initial_sample_fraction must be positive")
        # Integral floats normalize to int; NaN, inf and fractions raise
        # (a NaN batch cap would silently lift the cap).
        for name, minimum in (("max_batch_size", 1), ("fit_restarts", 0), ("seed", 0)):
            whole = require_whole(name, getattr(self, name), minimum=minimum)
            object.__setattr__(self, name, whole)
        require_fraction("drift_smoothing", self.drift_smoothing)
        require_positive("drift_threshold", self.drift_threshold)

    def initial_samples(self, space_size: int) -> int:
        """Number of phase-1 starting points for a space of ``space_size``."""
        return max(2, int(round(self.initial_sample_fraction * space_size)))

    def min_explored(self, space_size: int) -> int:
        """Minimum explored configurations before phase 2 may stop."""
        return max(3, int(round(self.min_explored_fraction * space_size)))
