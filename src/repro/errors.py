"""Exception hierarchy for the BoFL reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause, while
still being able to discriminate the failure domain (hardware simulation,
optimization, federated orchestration, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid configuration object or parameter value was supplied."""


class FrequencyError(ConfigurationError):
    """A DVFS frequency is outside the device's supported table."""


class DeviceError(ReproError):
    """The simulated device rejected an operation (bad state, bad knob)."""


class WorkloadError(ReproError):
    """A workload profile is malformed or unknown."""


class OptimizationError(ReproError):
    """An optimization routine (GP fit, acquisition, ILP) failed."""


class InfeasibleError(OptimizationError):
    """The optimization problem has no feasible solution.

    Raised, e.g., when a round deadline is shorter than the time needed to
    run all jobs at the fastest configuration.
    """


class DeadlineMissError(ReproError):
    """A training round finished after its deadline.

    The BoFL guardian is designed to prevent this; seeing it in a campaign
    indicates either a disabled guardian (ablation mode) or a bug.
    """

    def __init__(self, round_index: int, deadline: float, elapsed: float) -> None:
        self.round_index = round_index
        self.deadline = deadline
        self.elapsed = elapsed
        super().__init__(
            f"round {round_index} missed its deadline: "
            f"elapsed {elapsed:.3f}s > deadline {deadline:.3f}s"
        )


class PhaseError(ReproError):
    """The BoFL controller was driven in an order its state machine forbids."""


class NotFittedError(OptimizationError):
    """A model was queried before being fitted to any data."""
