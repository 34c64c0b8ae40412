"""Recovery policies and bookkeeping for chaos campaigns.

A :class:`RecoveryPolicy` declares how the chaos engine defends the
controller: how often to checkpoint its optimizer state, whether a
corrupted measurement window triggers a rollback, and whether detected
anomalies (thermal trips, deadline misses under fault) escalate the
guardian to pinning ``x_max``.  Policies are frozen scalar dataclasses —
hashable and picklable — because they participate in the campaign cache
key alongside the fault schedule.

:class:`RecoveryLog` is the matching tally: how many checkpoints were
taken, restores performed, escalations issued, rounds dropped and reports
lost over one campaign.  The engine fills it in; the chaos summary and
resilience metrics read it out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.types import from_mapping, require_flag, require_whole


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a chaos campaign defends the controller against faults."""

    #: Checkpoint the controller's optimizer state every N clean rounds
    #: (0 disables checkpointing entirely).
    checkpoint_interval: int = 1
    #: Roll back to the last checkpoint after a round whose measurement
    #: window was corrupted (sensor faults, rejected DVFS writes), so
    #: poisoned observations never enter the GP.
    restore_on_corruption: bool = True
    #: Escalate to the guardian's safe harbor — pin ``x_max`` — after a
    #: thermal trip or a deadline miss under an active fault.
    escalate_on_anomaly: bool = True
    #: How many subsequent rounds the escalation pins ``x_max`` for.
    escalation_rounds: int = 2

    def __post_init__(self) -> None:
        set_field = object.__setattr__  # the policy is frozen
        for name, minimum in (("checkpoint_interval", 0), ("escalation_rounds", 1)):
            set_field(self, name, require_whole(name, getattr(self, name), minimum=minimum))
        require_flag("restore_on_corruption", self.restore_on_corruption)
        require_flag("escalate_on_anomaly", self.escalate_on_anomaly)

    @property
    def checkpoints_enabled(self) -> bool:
        return self.checkpoint_interval > 0

    def to_dict(self) -> dict[str, object]:
        return {
            "checkpoint_interval": self.checkpoint_interval,
            "restore_on_corruption": self.restore_on_corruption,
            "escalate_on_anomaly": self.escalate_on_anomaly,
            "escalation_rounds": self.escalation_rounds,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "RecoveryPolicy":
        return from_mapping(cls, payload)


#: The defenseless policy: no checkpoints, no restores, no escalation.
#: Chaos campaigns run it as the ablation arm to show recovery matters.
NO_RECOVERY = RecoveryPolicy(
    checkpoint_interval=0,
    restore_on_corruption=False,
    escalate_on_anomaly=False,
)


@dataclass
class RecoveryLog:
    """Mutable per-campaign tally of injections and recovery actions."""

    injected: list[tuple[int, str]] = field(default_factory=list)
    checkpoints: int = 0
    restores: int = 0
    escalations: int = 0
    dropped_rounds: int = 0
    lost_reports: int = 0

    @property
    def recovery_actions(self) -> int:
        return self.restores + self.escalations

    def to_dict(self) -> dict[str, object]:
        return {
            "injected": [[r, k] for r, k in self.injected],
            "checkpoints": self.checkpoints,
            "restores": self.restores,
            "escalations": self.escalations,
            "dropped_rounds": self.dropped_rounds,
            "lost_reports": self.lost_reports,
        }
