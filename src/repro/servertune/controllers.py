"""Server-side global-knob controllers (the FedGPO / FedTune families).

BoFL optimizes each client's *local* pace; the global knobs the server
owns — round deadline slack, participation count, async buffer length,
and the rounds budget itself — stay fixed.  FedGPO and FedTune (see
PAPERS.md) show those server-side parameters dominate fleet-level energy
and latency once client pace is tuned.  This module provides the knob
vocabulary and three controllers:

``StaticKnobs``
    The identity controller: every round gets the default knobs, which
    reproduces the pre-subsystem behaviour byte-for-byte.
``FedGPOController``
    Heterogeneity-aware adaptation: an EWMA of the observed straggler
    rate widens the deadline (and restores participation) when rounds
    are straggler-heavy, and tightens the deadline (shrinking
    participation toward ``min_participation``) when the fleet is
    comfortably inside its budget — cutting both tail latency and the
    energy of reports that would be discarded anyway.
``FedTuneController``
    Multi-objective preference-weighted hill climbing: each round's
    (energy-per-aggregated-report, latency) is scored against the first
    round's baseline under ``alpha_energy``/``alpha_time`` weights; the
    controller keeps its current knob direction while the score improves
    and reverses course when it worsens.  ``patience`` rounds without
    improvement raise the ``halt`` knob (FedTune's rounds budget).

Determinism contract: controllers carry **no RNG** — every knob
trajectory is a pure function of the spec and the observed feedback
sequence, so identical feedback yields identical knobs in any process.
State changes only inside :meth:`ServerController.observe`;
:meth:`ServerController.knobs_for` is a pure read, which lets callers
query a round's knobs any number of times (engine, trace emitters)
without perturbing the trajectory.

Cache coupling: at the campaign level an adaptive controller reshapes
the per-round deadlines a client trains against, so a non-static
:class:`ServerTuneSpec` is part of the campaign cache key (see
:func:`repro.sim.cache.cache_token`); :func:`normalize_servertune` maps
static/no-op specs to ``None`` so they share keys — and bytes — with
pre-subsystem campaigns.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.types import from_mapping, require_number, require_positive, require_whole

#: Controller names :func:`make_server_controller` accepts.
SERVERTUNE_CONTROLLERS: tuple[str, ...] = ("static", "fedgpo", "fedtune")


@dataclass(frozen=True)
class ServerKnobs:
    """One round's global-knob settings, as multipliers on the static run.

    The defaults are the identity: a controller that always returns
    ``ServerKnobs()`` is indistinguishable from no controller at all.
    """

    #: Multiplier on the round's deadline budget (campaign level) and on
    #: the server's round-close patience (fleet composition level).
    deadline_scale: float = 1.0
    #: Fraction of the configured selection size to actually select.
    participation: float = 1.0
    #: ``async`` only: multiplier on the FedBuff commit threshold.
    buffer_scale: float = 1.0
    #: Stop the run before this round starts (the rounds-budget knob).
    halt: bool = False

    def __post_init__(self) -> None:
        require_positive("deadline_scale", self.deadline_scale)
        if not 0.0 < self.participation <= 1.0:
            raise ConfigurationError(
                f"participation must lie in (0, 1], got {self.participation}"
            )
        require_positive("buffer_scale", self.buffer_scale)

    @property
    def is_default(self) -> bool:
        """True when these knobs change nothing about the round."""
        return (
            self.deadline_scale == 1.0
            and self.participation == 1.0
            and self.buffer_scale == 1.0
            and not self.halt
        )


#: The identity knobs (shared instance; ServerKnobs is frozen).
DEFAULT_KNOBS = ServerKnobs()


@dataclass(frozen=True)
class RoundFeedback:
    """What the server observed about one completed round.

    Built from :class:`~repro.federated.server.ServerRound` /
    :class:`~repro.federated.async_engine.FleetRound` records (or, at the
    campaign level, from a single client's
    :class:`~repro.core.records.RoundRecord`).
    """

    round_index: int
    #: Clients asked to train this round.
    participants: int
    #: Reports that made it into the aggregation.
    buffered: int
    #: Reports that arrived but could not be aggregated (deadline miss,
    #: cutoff, staleness drop).
    stragglers: int
    #: Energy the round consumed across every participant.
    energy: float
    #: The round's latency on the server's clock.
    latency: float
    #: Running totals, for controllers that track campaign trajectory.
    total_energy: float = 0.0
    makespan: float = 0.0

    @property
    def straggler_rate(self) -> float:
        """Fraction of this round's participants whose work was wasted."""
        return self.stragglers / max(self.participants, 1)

    @property
    def energy_per_report(self) -> float:
        """Energy per aggregated report (the FedGPO efficiency signal)."""
        return self.energy / max(self.buffered, 1)


#: The real-valued :class:`ServerTuneSpec` fields (finite numbers, never bools).
_SPEC_NUMBERS = (
    "deadline_step", "participation_step", "straggler_upper", "straggler_lower",
    "smoothing", "alpha_time", "alpha_energy",
    "min_deadline_scale", "max_deadline_scale", "min_participation",
)


@dataclass(frozen=True)
class ServerTuneSpec:
    """Declarative configuration of one server controller.

    Frozen and key-bearing: a non-static spec joins the campaign cache
    key (the controller reshapes client traces), so every field below is
    read by :meth:`to_dict` — the key-completeness contract in
    ``repro analyze`` enforces that.
    """

    controller: str = "static"
    #: Multiplicative step applied to ``deadline_scale`` per adjustment.
    deadline_step: float = 0.15
    #: Multiplicative step applied to ``participation`` per adjustment.
    participation_step: float = 0.1
    #: FedGPO: straggler-rate EWMA above this widens the deadline.
    straggler_upper: float = 0.25
    #: FedGPO: straggler-rate EWMA below this tightens the deadline.
    straggler_lower: float = 0.05
    #: EWMA smoothing for observed rates/scores.
    smoothing: float = 0.5
    #: FedTune: preference weight on round latency.
    alpha_time: float = 0.5
    #: FedTune: preference weight on energy per aggregated report.
    alpha_energy: float = 0.5
    #: FedTune: halt after this many rounds without score improvement
    #: (0 disables the rounds-budget knob).
    patience: int = 0
    #: Declared bounds every controller clamps its knobs into.
    min_deadline_scale: float = 0.6
    max_deadline_scale: float = 1.8
    min_participation: float = 0.3

    def __post_init__(self) -> None:
        if self.controller not in SERVERTUNE_CONTROLLERS:
            raise ConfigurationError(
                f"unknown server controller {self.controller!r}; available: "
                f"{', '.join(SERVERTUNE_CONTROLLERS)}"
            )
        for name in _SPEC_NUMBERS:
            object.__setattr__(self, name, require_number(name, getattr(self, name)))
        for name, value in (
            ("deadline_step", self.deadline_step),
            ("participation_step", self.participation_step),
        ):
            if not 0.0 < value < 1.0:
                raise ConfigurationError(
                    f"{name} must lie in (0, 1), got {value}"
                )
        if not 0.0 <= self.straggler_lower < self.straggler_upper <= 1.0:
            raise ConfigurationError(
                "straggler thresholds must satisfy 0 <= lower < upper <= 1, "
                f"got lower={self.straggler_lower} upper={self.straggler_upper}"
            )
        if not 0.0 < self.smoothing <= 1.0:
            raise ConfigurationError(
                f"smoothing must lie in (0, 1], got {self.smoothing}"
            )
        check_preference_weights(self.alpha_time, self.alpha_energy)
        object.__setattr__(self, "patience", require_whole("patience", self.patience))
        if not 0.0 < self.min_deadline_scale <= 1.0 <= self.max_deadline_scale:
            raise ConfigurationError(
                "deadline-scale bounds must satisfy 0 < min <= 1 <= max, got "
                f"min={self.min_deadline_scale} max={self.max_deadline_scale}"
            )
        if not 0.0 < self.min_participation <= 1.0:
            raise ConfigurationError(
                f"min_participation must lie in (0, 1], got "
                f"{self.min_participation}"
            )

    @property
    def is_static(self) -> bool:
        """True when this spec configures the identity controller."""
        return self.controller == "static"

    def to_dict(self) -> dict[str, object]:
        """JSON-stable token of this spec (cache keys, PBT state files).

        Every field is read explicitly — not via ``dataclasses.asdict`` —
        so the key-completeness checker can prove the cache key covers
        the whole spec surface.
        """
        return {
            "kind": "servertune",
            "controller": self.controller,
            "deadline_step": float(self.deadline_step),
            "participation_step": float(self.participation_step),
            "straggler_upper": float(self.straggler_upper),
            "straggler_lower": float(self.straggler_lower),
            "smoothing": float(self.smoothing),
            "alpha_time": float(self.alpha_time),
            "alpha_energy": float(self.alpha_energy),
            "patience": self.patience,
            "min_deadline_scale": float(self.min_deadline_scale),
            "max_deadline_scale": float(self.max_deadline_scale),
            "min_participation": float(self.min_participation),
        }

    @classmethod
    def from_dict(cls, raw: dict[str, object]) -> "ServerTuneSpec":
        """Rebuild a spec from :meth:`to_dict` output (PBT resume files)."""
        return from_mapping(cls, raw, skip=("kind",))


def check_preference_weights(alpha_time: float, alpha_energy: float) -> None:
    """Reject preference weights that cannot score a round.

    Each weight must be a finite number >= 0 (a NaN or infinite weight
    would make every score NaN or inf), and they must not both be 0.
    """
    for name, value in (("alpha_time", alpha_time), ("alpha_energy", alpha_energy)):
        require_number(name, value, lambda v: v >= 0, "be finite and >= 0")
    if alpha_time + alpha_energy <= 0:
        raise ConfigurationError("preference weights must not both be 0")


def normalize_servertune(
    spec: Optional[ServerTuneSpec],
) -> Optional[ServerTuneSpec]:
    """Map static/no-op specs to ``None`` for key purposes.

    A static spec changes nothing about a run, so it must share cache
    keys (and traces) with runs that never heard of the subsystem.
    """
    if spec is None or spec.is_static:
        return None
    return spec


def _clamp(value: float, lower: float, upper: float) -> float:
    return min(upper, max(lower, value))


class ServerController(ABC):
    """Per-round global-knob policy (the subsystem's protocol).

    Lifecycle: the engine calls :meth:`knobs_for` at the top of round
    ``i`` (a pure read), runs the round under those knobs, then calls
    :meth:`observe` with the round's feedback.  :meth:`reset` restores
    the initial state so one instance can drive repeated compositions.
    """

    def __init__(self, spec: ServerTuneSpec) -> None:
        self.spec = spec
        self.reset()

    @property
    def name(self) -> str:
        return self.spec.controller

    def reset(self) -> None:
        """Restore the pre-campaign state (default: stateless)."""

    @abstractmethod
    def knobs_for(self, round_index: int) -> ServerKnobs:
        """The knobs for round ``round_index`` (pure; no state change)."""

    def observe(self, feedback: RoundFeedback) -> None:
        """Fold one completed round's feedback into the controller state."""


class StaticKnobs(ServerController):
    """Today's behaviour: every round runs under the default knobs."""

    def knobs_for(self, round_index: int) -> ServerKnobs:
        return DEFAULT_KNOBS


class FedGPOController(ServerController):
    """Heterogeneity-aware deadline/participation adaptation.

    Tracks an EWMA of the straggler rate.  Above ``straggler_upper`` the
    fleet is wasting energy on discarded reports: widen the deadline by
    ``deadline_step`` and restore participation.  Below
    ``straggler_lower`` every report lands comfortably: tighten the
    deadline and shed participants toward ``min_participation`` — fewer,
    faster rounds at lower energy.  Between the thresholds the knobs
    hold steady.
    """

    def reset(self) -> None:
        self._deadline_scale = 1.0
        self._participation = 1.0
        self._miss_ewma: Optional[float] = None

    @property
    def straggler_ewma(self) -> Optional[float]:
        """The smoothed straggler rate (None before any feedback)."""
        return self._miss_ewma

    def knobs_for(self, round_index: int) -> ServerKnobs:
        return ServerKnobs(
            deadline_scale=self._deadline_scale,
            participation=self._participation,
            buffer_scale=self._participation,
        )

    def observe(self, feedback: RoundFeedback) -> None:
        spec = self.spec
        rate = feedback.straggler_rate
        if self._miss_ewma is None:
            self._miss_ewma = rate
        else:
            self._miss_ewma = (
                (1 - spec.smoothing) * self._miss_ewma + spec.smoothing * rate
            )
        if self._miss_ewma > spec.straggler_upper:
            self._deadline_scale *= 1 + spec.deadline_step
            self._participation = _clamp(
                self._participation * (1 + spec.participation_step),
                spec.min_participation,
                1.0,
            )
        elif self._miss_ewma < spec.straggler_lower:
            self._deadline_scale *= 1 - spec.deadline_step
            self._participation = _clamp(
                self._participation * (1 - spec.participation_step),
                spec.min_participation,
                1.0,
            )
        self._deadline_scale = _clamp(
            self._deadline_scale, spec.min_deadline_scale, spec.max_deadline_scale
        )


class FedTuneController(ServerController):
    """Preference-weighted multi-objective hill climbing.

    Score per round: ``alpha_energy * (energy-per-report / baseline) +
    alpha_time * (latency / baseline)`` where the baseline is the first
    observed round.  While the smoothed score improves, the current knob
    directions are kept; when it worsens, both reverse.  ``patience``
    consecutive rounds without improving on the best score raise the
    ``halt`` knob — the server stops spending rounds that no longer buy
    anything under the stated preference.
    """

    def reset(self) -> None:
        self._deadline_scale = 1.0
        self._participation = 1.0
        self._dir_deadline = -1.0
        self._dir_participation = -1.0
        self._baseline: Optional[tuple[float, float]] = None
        self._score_ewma: Optional[float] = None
        self._best_score = float("inf")
        self._stalled = 0
        self._halted = False

    @property
    def halted(self) -> bool:
        return self._halted

    def knobs_for(self, round_index: int) -> ServerKnobs:
        return ServerKnobs(
            deadline_scale=self._deadline_scale,
            participation=self._participation,
            buffer_scale=self._participation,
            halt=self._halted,
        )

    def _score(self, feedback: RoundFeedback) -> float:
        if self._baseline is None:
            raise ConfigurationError(
                "FedTune score requested before the baseline round arrived"
            )
        base_energy, base_latency = self._baseline
        spec = self.spec
        scale = spec.alpha_time + spec.alpha_energy
        energy_term = feedback.energy_per_report / max(base_energy, 1e-12)
        time_term = feedback.latency / max(base_latency, 1e-12)
        return (
            spec.alpha_energy * energy_term + spec.alpha_time * time_term
        ) / scale

    def observe(self, feedback: RoundFeedback) -> None:
        spec = self.spec
        if self._baseline is None:
            # The first round (run at default knobs) defines "1.0".
            self._baseline = (
                max(feedback.energy_per_report, 1e-12),
                max(feedback.latency, 1e-12),
            )
        score = self._score(feedback)
        if self._score_ewma is not None and score > self._score_ewma:
            # The last adjustment made things worse: reverse course.
            self._dir_deadline = -self._dir_deadline
            self._dir_participation = -self._dir_participation
        self._score_ewma = (
            score
            if self._score_ewma is None
            else (1 - spec.smoothing) * self._score_ewma + spec.smoothing * score
        )
        if score < self._best_score - 1e-9:
            self._best_score = score
            self._stalled = 0
        else:
            self._stalled += 1
            if spec.patience and self._stalled >= spec.patience:
                self._halted = True
        self._deadline_scale = _clamp(
            self._deadline_scale * (1 + self._dir_deadline * spec.deadline_step),
            spec.min_deadline_scale,
            spec.max_deadline_scale,
        )
        self._participation = _clamp(
            self._participation
            * (1 + self._dir_participation * spec.participation_step),
            spec.min_participation,
            1.0,
        )


def make_server_controller(spec: Optional[ServerTuneSpec]) -> ServerController:
    """Instantiate the controller a spec names (``None`` means static)."""
    if spec is None:
        spec = ServerTuneSpec()
    if spec.controller == "static":
        return StaticKnobs(spec)
    if spec.controller == "fedgpo":
        return FedGPOController(spec)
    if spec.controller == "fedtune":
        return FedTuneController(spec)
    raise ConfigurationError(
        f"unknown server controller {spec.controller!r}; available: "
        f"{', '.join(SERVERTUNE_CONTROLLERS)}"
    )
