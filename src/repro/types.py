"""Cross-cutting value types shared by every subpackage.

The central abstraction of the paper is the *job* — processing one minibatch
of training data under a single DVFS configuration — and the pair of
blackbox per-job metrics ``T(x)`` (latency, seconds) and ``E(x)`` (energy,
Joules).  The types here carry those quantities between the hardware
simulator, the Bayesian optimizer and the controller without any of them
needing to know about each other.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, Mapping
from typing import Optional, TypeVar

from repro.errors import ConfigurationError

#: Type aliases used in signatures throughout the package (documentation
#: only; Python does not enforce them).
Seconds = float
Joules = float
Watts = float
GHz = float

_T = TypeVar("_T")


@dataclass(frozen=True, order=True)
class DvfsConfiguration:
    """One point of the DVFS space: (CPU, GPU, memory-controller) clocks.

    Frequencies are stored in GHz.  Instances are immutable and hashable so
    they can key observation dictionaries, and ordered lexicographically so
    deterministic iteration orders are easy to produce.
    """

    cpu: GHz
    gpu: GHz
    mem: GHz

    def __post_init__(self) -> None:
        for name, value in (("cpu", self.cpu), ("gpu", self.gpu), ("mem", self.mem)):
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ConfigurationError(f"{name} frequency must be finite, got {value!r}")
            if value <= 0:
                raise ConfigurationError(f"{name} frequency must be positive, got {value!r}")

    def as_tuple(self) -> tuple[GHz, GHz, GHz]:
        """Return ``(cpu, gpu, mem)`` in GHz."""
        return (self.cpu, self.gpu, self.mem)

    def __iter__(self) -> Iterator[GHz]:
        return iter(self.as_tuple())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"(cpu={self.cpu:.3f}GHz, gpu={self.gpu:.3f}GHz, mem={self.mem:.3f}GHz)"


@dataclass(frozen=True)
class PerformanceSample:
    """A measurement of the two blackbox objectives at one configuration.

    ``latency`` and ``energy`` are *per-job* (per-minibatch) quantities, as
    defined in §3.1 of the paper.  ``jobs_measured`` and ``duration`` record
    how much work backed the measurement; longer measurements carry less
    sensor noise (the motivation for the paper's ``tau`` reference
    measurement duration).
    """

    config: DvfsConfiguration
    latency: Seconds
    energy: Joules
    jobs_measured: int = 1
    duration: Seconds = 0.0

    def __post_init__(self) -> None:
        if self.latency <= 0 or not math.isfinite(self.latency):
            raise ConfigurationError(f"latency must be positive, got {self.latency!r}")
        if self.energy <= 0 or not math.isfinite(self.energy):
            raise ConfigurationError(f"energy must be positive, got {self.energy!r}")
        if self.jobs_measured < 1:
            raise ConfigurationError("jobs_measured must be >= 1")

    @property
    def objectives(self) -> tuple[Seconds, Joules]:
        """Return the objective vector ``(T(x), E(x))`` used by the MBO."""
        return (self.latency, self.energy)

    def merged_with(self, other: "PerformanceSample") -> "PerformanceSample":
        """Combine two samples of the *same* configuration.

        The result is the job-count weighted average, reflecting what a real
        energy meter would report if the two measurement windows were
        concatenated.
        """
        if other.config != self.config:
            raise ConfigurationError(
                f"cannot merge samples of different configs: {self.config} vs {other.config}"
            )
        total_jobs = self.jobs_measured + other.jobs_measured
        w_self = self.jobs_measured / total_jobs
        w_other = other.jobs_measured / total_jobs
        return PerformanceSample(
            config=self.config,
            latency=self.latency * w_self + other.latency * w_other,
            energy=self.energy * w_self + other.energy * w_other,
            jobs_measured=total_jobs,
            duration=self.duration + other.duration,
        )


@dataclass(frozen=True)
class JobResult:
    """Outcome of executing one job (one minibatch) on a device."""

    config: DvfsConfiguration
    latency: Seconds
    energy: Joules
    #: Simulated timestamp at which the job completed.
    finished_at: Seconds = 0.0


@dataclass
class RoundBudget:
    """Mutable per-round accounting used by the controller while executing.

    Tracks how many jobs remain and how much time is left before the round
    deadline, which is exactly the state the deadline-guardian check
    (Eqn. 2 in the paper) consumes.
    """

    total_jobs: int
    deadline: Seconds
    jobs_done: int = 0
    elapsed: Seconds = 0.0

    def __post_init__(self) -> None:
        if self.total_jobs < 1:
            raise ConfigurationError("a round must contain at least one job")
        if self.deadline <= 0:
            raise ConfigurationError("deadline must be positive")

    @property
    def jobs_remaining(self) -> int:
        return self.total_jobs - self.jobs_done

    @property
    def time_remaining(self) -> Seconds:
        return self.deadline - self.elapsed

    @property
    def finished(self) -> bool:
        return self.jobs_remaining <= 0

    @property
    def missed(self) -> bool:
        """Whether time ran out with jobs still outstanding."""
        return self.time_remaining < 0

    def record_job(self, result: JobResult) -> None:
        """Account one executed job against the budget."""
        if self.finished:
            raise ConfigurationError("all jobs in this round are already done")
        self.jobs_done += 1
        self.elapsed += result.latency


@dataclass(frozen=True)
class ScheduleEntry:
    """A (configuration, job count) term of an exploitation schedule."""

    config: DvfsConfiguration
    jobs: int

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ConfigurationError("schedule entry job count must be >= 0")


@dataclass(frozen=True)
class Schedule:
    """An exploitation plan: run ``entry.jobs`` jobs at each configuration.

    Produced by the ILP planner (§4.4); consumed by the controller, which
    executes entries in the listed order (fastest first, so that noise late
    in the round cannot cause a miss).
    """

    entries: tuple[ScheduleEntry, ...]
    expected_latency: Seconds
    expected_energy: Joules

    @property
    def total_jobs(self) -> int:
        return sum(entry.jobs for entry in self.entries)

    def __iter__(self) -> Iterator[ScheduleEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ObjectiveVector:
    """An (latency, energy) point in performance space.

    Thin wrapper used by Pareto utilities where no configuration is
    attached (e.g. reference points).
    """

    latency: Seconds
    energy: Joules

    def as_tuple(self) -> tuple[Seconds, Joules]:
        return (self.latency, self.energy)

    def dominates(self, other: "ObjectiveVector") -> bool:
        """Pareto dominance for minimization of both coordinates (§3.2)."""
        no_worse = self.latency <= other.latency and self.energy <= other.energy
        strictly_better = self.latency < other.latency or self.energy < other.energy
        return no_worse and strictly_better


@dataclass
class EnergyLedger:
    """Accumulates energy by category over a campaign.

    Splits training energy from controller (MBO) overhead so that the
    overhead analysis of Fig. 13 can be regenerated.
    """

    training: Joules = 0.0
    mbo_overhead: Joules = 0.0
    idle: Joules = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def total(self) -> Joules:
        return self.training + self.mbo_overhead + self.idle + sum(self.extras.values())

    def add(self, category: str, amount: Joules) -> None:
        if amount < 0:
            raise ConfigurationError("energy amounts must be non-negative")
        if category == "training":
            self.training += amount
        elif category == "mbo_overhead":
            self.mbo_overhead += amount
        elif category == "idle":
            self.idle += amount
        else:
            self.extras[category] = self.extras.get(category, 0.0) + amount


def require_number(
    name: str,
    value: object,
    within: Optional[Callable[[float], bool]] = None,
    expect: str = "be a finite number",
) -> float:
    """Validate a finite real number that satisfies ``within``; return a float.

    An integral ``value`` (``10``, as JSON may carry ``10.0``) normalizes
    to ``float``.  Booleans, non-numbers, NaN, infinities and values
    outside ``within`` raise :class:`ConfigurationError` reading
    ``"{name} must {expect}, got {value!r}"``.
    """
    if not (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and (within is None or within(value))
    ):
        raise ConfigurationError(f"{name} must {expect}, got {value!r}")
    return float(value)


def require_positive(name: str, value: object) -> float:
    """Validate that ``value`` is a finite positive number and return it."""
    return require_number(name, value, lambda v: v > 0, "be a finite positive number")


def require_fraction(name: str, value: object, *, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in [0, 1] (or (0, 1) if not inclusive)."""
    within = (lambda v: 0.0 <= v <= 1.0) if inclusive else (lambda v: 0.0 < v < 1.0)
    return require_number(name, value, within, "lie in the unit interval")


def require_whole(name: str, value: object, *, minimum: int = 0) -> int:
    """Validate that ``value`` is a whole number >= ``minimum``; return an int.

    Integral floats (``10.0``, as JSON may carry them) normalize to
    ``int``.  Booleans, non-numbers, NaN, infinities and fractional values
    raise :class:`ConfigurationError` naming the field.
    """
    whole = None
    # ``type(value) is int`` first: the common case, without the slow ABC check.
    if type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    ):
        whole = int(value)
    elif isinstance(value, float) and value.is_integer():  # False for NaN, inf
        whole = int(value)
    if whole is None or whole < minimum:
        raise ConfigurationError(
            f"{name} must be a whole number >= {minimum}, got {value!r}"
        )
    return whole


def require_text(name: str, value: object, *, empty: bool = False) -> str:
    """Validate that ``value`` is a string, non-empty unless ``empty``."""
    if not isinstance(value, str) or not (empty or value):
        kind = "string" if empty else "non-empty string"
        raise ConfigurationError(f"{name} must be a {kind}, got {value!r}")
    return value


def require_flag(name: str, value: object) -> bool:
    """Validate that ``value`` is a bool: JSON ``true``/``false``, never 0, 1 or a string."""
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be true or false, got {value!r}")
    return value


def require_items(name: str, value: object, kind: type[_T]) -> tuple[_T, ...]:
    """Validate a list or tuple of ``kind`` instances; return it as a tuple."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(i, kind) for i in value):
        raise ConfigurationError(f"{name} must be a list of {kind.__name__}, got {value!r}")
    return tuple(value)


def from_mapping(
    cls: type[_T],
    raw: object,
    *,
    skip: tuple[str, ...] = (),
    **readers: Callable[[object], object],
) -> _T:
    """Build the dataclass ``cls`` from the JSON object ``raw``; its constructor checks the values.

    Here only the keys are checked, naming the key: each must be a field of
    ``cls`` (or in ``skip``, such as a ``"kind"`` tag), and every field
    without a default must be present.  A field in ``readers`` (a nested
    spec) goes through its reader first, item by item for a list.
    """
    if not isinstance(raw, Mapping):
        raise ConfigurationError(f"{cls.__name__} must be a JSON object, got {raw!r}")
    fields = {spec.name: spec for spec in dataclasses.fields(cls)}  # type: ignore[arg-type]
    for key in raw:
        if key not in fields and key not in skip:
            raise ConfigurationError(f"{cls.__name__} has no field {key!r}")
    for name, spec in fields.items():
        if name not in raw and dataclasses.MISSING is spec.default is spec.default_factory:
            raise ConfigurationError(f"{cls.__name__} is missing field {name!r}")
    values = {key: value for key, value in raw.items() if key not in skip}
    for name, reader in readers.items():
        if name in values:
            value = values[name]
            try:
                values[name] = (
                    [reader(item) for item in value]
                    if isinstance(value, list)
                    else reader(value)
                )
            except ConfigurationError as error:
                raise ConfigurationError(f"{name}: {error}") from None
    return cls(**values)
