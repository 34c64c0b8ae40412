"""Chaos campaigns: paired fault-free / faulted runs with a resilience report.

This is the orchestration layer above :mod:`repro.faults`: it builds a
seeded :class:`~repro.faults.schedule.FaultSchedule` from a named preset,
runs the faulted campaign *and* its fault-free twin (same device, task,
controller, deadline ratio and seed — only the schedule differs) through
the ordinary executor/cache machinery, and distills the pair into
:class:`~repro.faults.metrics.ResilienceMetrics`.

Everything flows through :class:`~repro.sim.executor.CampaignSpec`, so
chaos campaigns inherit the stack's guarantees for free: serial and
parallel execution are identical, results cache under keys that include
the schedule and policy, and obs traces are byte-reproducible for a fixed
seed.  ``repro chaos run`` is the CLI front end, and ``repro trace --view
chaos`` replays its trace through :func:`render_chaos_trace`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.analysis.tables import ascii_table, render_kv
from repro.core.records import CampaignResult
from repro.errors import ConfigurationError
from repro.faults.metrics import ResilienceMetrics
from repro.faults.recovery import NO_RECOVERY, RecoveryPolicy
from repro.faults.choices import CHAOS_PRESETS
from repro.faults.schedule import FaultSchedule
from repro.obs.events import Event

if TYPE_CHECKING:
    from repro.sim.executor import CampaignExecutor

def preset_schedule(
    preset: str, seed: int, rounds: int, *, n_faults: int = 4
) -> FaultSchedule:
    """Derive the schedule of a named preset for a campaign of ``rounds``."""
    try:
        kinds = CHAOS_PRESETS[preset]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos preset {preset!r}; available: "
            f"{', '.join(sorted(CHAOS_PRESETS))}"
        ) from None
    return FaultSchedule.generate(seed, rounds, kinds=kinds, n_faults=n_faults)


@dataclass(frozen=True)
class ChaosRunResult:
    """A faulted campaign, its fault-free twin, and the comparison."""

    preset: str
    schedule: FaultSchedule
    policy: RecoveryPolicy
    baseline: CampaignResult
    faulted: CampaignResult
    metrics: ResilienceMetrics

    def render(self) -> str:
        """The ``repro chaos run`` report."""
        chaos = self.faulted.chaos
        pairs = [
            ("preset", self.preset),
            ("device / task", f"{self.faulted.device} / {self.faulted.task}"),
            ("controller", self.faulted.controller),
            ("rounds", self.metrics.rounds),
            ("faults injected", len(self.schedule)),
            ("faulted rounds", self.metrics.faulted_rounds),
            ("missed rounds", self.metrics.missed_rounds),
            ("miss rate", f"{self.metrics.miss_rate:.1%}"),
            ("baseline energy (J)", self.metrics.baseline_energy),
            ("faulted energy (J)", self.metrics.faulted_energy),
            (
                "energy regret",
                f"{self.metrics.energy_regret:.1f} J "
                f"({self.metrics.energy_regret_fraction:+.1%})",
            ),
            (
                "recovery rounds",
                f"mean {self.metrics.mean_recovery_rounds:.1f}, "
                f"max {self.metrics.max_recovery_rounds}",
            ),
        ]
        if chaos is not None:
            pairs += [
                ("checkpoints", chaos.checkpoints),
                ("restores", chaos.restores),
                ("escalations", chaos.escalations),
                ("dropped rounds", chaos.dropped_rounds),
                ("lost reports", chaos.lost_reports),
            ]
        lines = [render_kv(pairs, title="Chaos campaign")]
        rows = [
            [f.kind, f.start_round, f.end_round - 1, f"{f.magnitude:.3g}"]
            for f in self.schedule.faults
        ]
        if rows:
            lines.append("")
            lines.append(
                ascii_table(
                    ["fault", "from round", "to round", "magnitude"],
                    rows,
                    title="Injected schedule",
                )
            )
        return "\n".join(lines)


def run_chaos(
    device: str = "agx",
    task: str = "vit",
    controller: str = "bofl",
    deadline_ratio: float = 2.0,
    *,
    rounds: int = 20,
    seed: int = 0,
    preset: str = "mixed",
    n_faults: int = 4,
    schedule: Optional[FaultSchedule] = None,
    policy: Optional[RecoveryPolicy] = None,
    recovery: bool = True,
    executor: Optional[CampaignExecutor] = None,
    use_cache: bool = True,
) -> ChaosRunResult:
    """Run one chaos campaign plus its fault-free twin and compare them.

    ``schedule`` overrides the preset; ``recovery=False`` selects the
    defenseless :data:`~repro.faults.recovery.NO_RECOVERY` ablation.  Both
    campaigns go through ``executor`` (default: a serial one), so
    ``--workers`` parallelism and cache layering apply unchanged.
    """
    from repro.sim.executor import CampaignExecutor, CampaignSpec

    if schedule is None:
        schedule = preset_schedule(preset, seed, rounds, n_faults=n_faults)
    if policy is None:
        policy = RecoveryPolicy() if recovery else NO_RECOVERY
    base_spec = CampaignSpec(
        device=device,
        task=task,
        controller=controller,
        deadline_ratio=float(deadline_ratio),
        rounds=rounds,
        seed=seed,
    )
    chaos_spec = CampaignSpec(
        device=device,
        task=task,
        controller=controller,
        deadline_ratio=float(deadline_ratio),
        rounds=rounds,
        seed=seed,
        fault_schedule=schedule,
        recovery_policy=policy,
    )
    if executor is None:
        executor = CampaignExecutor(workers=1)
    report = executor.run([base_spec, chaos_spec], use_cache=use_cache)
    baseline, faulted = report.results
    metrics = ResilienceMetrics.compute(faulted, baseline, schedule)
    return ChaosRunResult(
        preset=preset,
        schedule=schedule,
        policy=policy,
        baseline=baseline,
        faulted=faulted,
        metrics=metrics,
    )


#: Event kinds the trace report tabulates, in display order.
_TRACE_KINDS = (
    "fault.injected",
    "fault.cleared",
    "recovery.checkpoint",
    "recovery.restore",
    "recovery.escalation",
)


def render_chaos_trace(events: Iterable[Event]) -> str:
    """The ``repro trace --view chaos`` report over a recorded event stream.

    Summarizes the fault/recovery activity of a trace written by
    ``repro chaos run --trace``: per-kind counts plus a chronological
    fault-and-recovery timeline.
    """
    counts = {kind: 0 for kind in _TRACE_KINDS}
    timeline = []
    rounds_seen = 0
    missed = 0
    for event in events:
        if event.kind in counts:
            counts[event.kind] += 1
        if event.kind == "controller.round":
            rounds_seen += 1
            if event.payload.get("missed"):
                missed += 1
        if event.kind == "fault.injected":
            timeline.append(
                [
                    event.payload.get("round", "?"),
                    "inject",
                    event.payload.get("fault", "?"),
                    f"magnitude {event.payload.get('magnitude', 0):.3g}",
                ]
            )
        elif event.kind == "recovery.restore":
            kinds = event.payload.get("kinds", [])
            detail = ", ".join(str(k) for k in kinds) if isinstance(kinds, list) else ""
            timeline.append(
                [event.payload.get("round", "?"), "restore", "checkpoint", detail]
            )
        elif event.kind == "recovery.escalation":
            timeline.append(
                [
                    event.payload.get("round", "?"),
                    "escalate",
                    "x_max pin",
                    f"{event.payload.get('rounds', '?')} round(s)",
                ]
            )
    if all(count == 0 for count in counts.values()):
        raise ConfigurationError(
            "no fault or recovery events in this trace "
            "(was it recorded with `repro chaos run --trace`?)"
        )
    pairs = [(kind, counts[kind]) for kind in _TRACE_KINDS]
    pairs.append(("controller rounds", rounds_seen))
    pairs.append(("missed rounds", missed))
    lines = [render_kv(pairs, title="Chaos trace summary")]
    if timeline:
        lines.append("")
        lines.append(
            ascii_table(
                ["round", "action", "what", "detail"],
                timeline,
                title="Fault & recovery timeline",
            )
        )
    return "\n".join(lines)

