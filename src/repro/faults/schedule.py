"""Declarative fault schedules, fully derived from a seed.

A :class:`FaultSpec` names one fault — a kind from :data:`FAULT_KINDS`, a
round window ``[start_round, start_round + rounds)`` and a kind-specific
``magnitude`` — and a :class:`FaultSchedule` is an immutable, hashable
bundle of them.  Schedules participate in the campaign cache key (see
:func:`repro.sim.runner.campaign_key`), so two things are non-negotiable:

* **hashable and picklable** — frozen dataclasses of scalars only, safe to
  cross the process-pool boundary;
* **no wall clock, no global randomness** — :meth:`FaultSchedule.generate`
  draws every window and magnitude from a ``numpy`` generator seeded by
  the caller, so the same seed always yields the same chaos.

Fault kinds and their ``magnitude`` semantics:

===================  =======================================================
kind                 magnitude
===================  =======================================================
``sensor_outage``    factor (< 1) applied to measured window energy — the
                     power sensor reads almost nothing during the outage
``sensor_spike``     factor (> 1) applied to measured window energy
``thermal_trip``     forced board temperature in degrees C at round start
``dvfs_reject``      unused — the DVFS driver rejects reconfiguration
``straggler``        per-job latency/energy inflation factor (> 1)
``transport_stall``  fraction of the reporting deadline eaten by the stall
``transport_loss``   unused — the round's upload is lost (counts as missed)
``client_dropout``   unused — the client drops out before training
===================  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError

#: The closed set of fault kinds injectors understand.
FAULT_KINDS: tuple[str, ...] = (
    "sensor_outage",
    "sensor_spike",
    "thermal_trip",
    "dvfs_reject",
    "straggler",
    "transport_stall",
    "transport_loss",
    "client_dropout",
)

#: Named fault mixes for ``repro chaos run --preset``
#: (:func:`repro.sim.chaos.preset_schedule`).  Each preset is the tuple of
#: kinds :meth:`FaultSchedule.generate` cycles through.
CHAOS_PRESETS: dict[str, tuple[str, ...]] = {
    "sensor": ("sensor_outage", "sensor_spike", "dvfs_reject"),
    "thermal": ("thermal_trip", "straggler"),
    "transport": ("transport_stall", "transport_loss", "client_dropout"),
    "mixed": FAULT_KINDS,
}

#: Kinds that corrupt the controller's measurement pipeline (the
#: restore-on-corruption recovery policy keys on these).
MEASUREMENT_CORRUPTING_KINDS = frozenset(
    {"sensor_outage", "sensor_spike", "dvfs_reject"}
)

#: Magnitude ranges :meth:`FaultSchedule.generate` draws from, per kind.
_GENERATE_MAGNITUDES: dict[str, tuple[float, float]] = {
    "sensor_outage": (0.02, 0.10),
    "sensor_spike": (3.0, 8.0),
    "thermal_trip": (80.0, 92.0),
    "dvfs_reject": (1.0, 1.0),
    "straggler": (1.2, 1.8),
    "transport_stall": (0.2, 0.5),
    "transport_loss": (1.0, 1.0),
    "client_dropout": (1.0, 1.0),
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault window: what breaks, when, and how hard."""

    kind: str
    start_round: int
    rounds: int = 1
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; available: "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.start_round < 0:
            raise ConfigurationError(
                f"start_round must be >= 0, got {self.start_round}"
            )
        if self.rounds < 1:
            raise ConfigurationError(
                f"a fault must span at least one round, got {self.rounds}"
            )
        if not (isinstance(self.magnitude, (int, float)) and self.magnitude > 0):
            raise ConfigurationError(
                f"magnitude must be a positive number, got {self.magnitude!r}"
            )
        if self.kind in ("sensor_outage", "transport_stall") and self.magnitude >= 1.0:
            raise ConfigurationError(
                f"{self.kind} magnitude is a fraction in (0, 1), "
                f"got {self.magnitude}"
            )

    @property
    def end_round(self) -> int:
        """First round the fault is no longer active (exclusive bound)."""
        return self.start_round + self.rounds

    def active_in(self, round_index: int) -> bool:
        """Whether this fault is live during ``round_index``."""
        return self.start_round <= round_index < self.end_round

    @property
    def corrupts_measurements(self) -> bool:
        return self.kind in MEASUREMENT_CORRUPTING_KINDS

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "start_round": self.start_round,
            "rounds": self.rounds,
            "magnitude": float(self.magnitude),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "FaultSpec":
        try:
            return cls(
                kind=str(payload["kind"]),
                start_round=int(payload["start_round"]),  # type: ignore[call-overload]
                rounds=int(payload["rounds"]),  # type: ignore[call-overload]
                magnitude=float(payload["magnitude"]),  # type: ignore[arg-type]
            )
        except KeyError as error:
            raise ConfigurationError(
                f"fault spec payload missing field {error}"
            ) from error


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable bundle of fault windows for one campaign.

    ``seed`` records the generator seed the schedule was derived from (or
    a caller-chosen label for hand-written schedules); it participates in
    hashing/equality so two differently-derived schedules never collide in
    the campaign cache even if their windows happen to coincide.
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.faults, tuple):
            # Tolerate lists at construction; store the hashable form.
            object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise ConfigurationError(
                    f"faults must be FaultSpec instances, got {fault!r}"
                )

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def is_empty(self) -> bool:
        return not self.faults

    @property
    def max_round(self) -> int:
        """The last round any fault is active in (-1 for empty schedules)."""
        if not self.faults:
            return -1
        return max(f.end_round for f in self.faults) - 1

    def active(self, round_index: int) -> tuple[FaultSpec, ...]:
        """Every fault live during ``round_index``, in declaration order."""
        return tuple(f for f in self.faults if f.active_in(round_index))

    def kinds(self) -> tuple[str, ...]:
        """The distinct fault kinds present, sorted."""
        return tuple(sorted({f.kind for f in self.faults}))

    @property
    def needs_thermal(self) -> bool:
        """Whether any fault requires a thermal model on the device."""
        return any(f.kind == "thermal_trip" for f in self.faults)

    def to_dict(self) -> dict[str, object]:
        """A JSON-stable representation (cache tokens, obs events)."""
        return {
            "seed": int(self.seed),
            "faults": [f.to_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "FaultSchedule":
        faults_raw = payload.get("faults")
        if not isinstance(faults_raw, list):
            raise ConfigurationError(
                f"fault schedule payload needs a 'faults' list, got {payload!r}"
            )
        return cls(
            faults=tuple(FaultSpec.from_dict(f) for f in faults_raw),
            seed=int(payload.get("seed", 0)),  # type: ignore[call-overload]
        )

    @classmethod
    def generate(
        cls,
        seed: int,
        rounds: int,
        *,
        kinds: Optional[tuple[str, ...]] = None,
        n_faults: int = 3,
        min_duration: int = 1,
        max_duration: int = 3,
        settle_rounds: int = 2,
    ) -> "FaultSchedule":
        """Derive a random schedule deterministically from ``seed``.

        Draws ``n_faults`` windows over ``[settle_rounds, rounds)`` — the
        first ``settle_rounds`` rounds are kept clean so controllers get at
        least one healthy measurement of ``x_max`` — with kinds cycled from
        ``kinds`` (default: all of :data:`FAULT_KINDS`), durations in
        ``[min_duration, max_duration]`` and magnitudes from the per-kind
        ranges.  Same arguments, same schedule — no wall clock, no global
        random state.
        """
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        if n_faults < 0:
            raise ConfigurationError(f"n_faults must be >= 0, got {n_faults}")
        if not 1 <= min_duration <= max_duration:
            raise ConfigurationError(
                f"need 1 <= min_duration <= max_duration, got "
                f"{min_duration}, {max_duration}"
            )
        pool = kinds if kinds is not None else FAULT_KINDS
        for kind in pool:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r}; available: "
                    f"{', '.join(FAULT_KINDS)}"
                )
        rng = np.random.default_rng(seed)
        first = min(settle_rounds, max(rounds - 1, 0))
        faults = []
        for index in range(n_faults):
            kind = pool[index % len(pool)]
            duration = int(rng.integers(min_duration, max_duration + 1))
            latest = max(rounds - duration, first)
            start = int(rng.integers(first, latest + 1))
            low, high = _GENERATE_MAGNITUDES[kind]
            magnitude = float(rng.uniform(low, high)) if high > low else low
            faults.append(
                FaultSpec(
                    kind=kind,
                    start_round=start,
                    rounds=duration,
                    magnitude=magnitude,
                )
            )
        ordered = tuple(
            sorted(faults, key=lambda f: (f.start_round, f.kind, f.magnitude))
        )
        return cls(faults=ordered, seed=seed)
