"""Trace replay: turn a recorded event stream back into reports.

A trace recorded around :func:`repro.sim.runner.run_campaign` contains
everything Table 3 and Fig. 13 are made of — per-round exploration lists,
the final Pareto front, and per-run MBO costs — so both artifacts can be
*derived from the trace alone* and rendered through the existing
``tab3_walkthrough`` / ``fig13_overhead`` renderers.  The regression
suite cross-checks these derivations against the drivers' own outputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence
from typing import Optional

import numpy as np

from repro.analysis.charts import sparkline
from repro.analysis.tables import ascii_table
from repro.errors import ConfigurationError
from repro.obs.events import Event, iter_between

#: Config triples travel through JSON as lists; compare as tuples.
ConfigKey = tuple[float, float, float]


def _config_key(raw: Sequence[float]) -> ConfigKey:
    return tuple(float(v) for v in raw)  # type: ignore[return-value]


@dataclass
class MBORunTrace:
    """One ``mbo.run`` event, decoded."""

    round_index: int
    latency: float
    energy: float
    n_observations: int
    batch_size: int


@dataclass
class RoundTrace:
    """One ``controller.round`` event, decoded."""

    round_index: int
    phase: str
    jobs: int
    deadline: float
    elapsed: float
    energy: float
    missed: bool
    guardian_triggered: bool
    exploited_jobs: int
    explored: list[ConfigKey] = field(default_factory=list)


@dataclass
class CampaignTrace:
    """All events of one campaign bracket, decoded and ordered."""

    device: str
    task: str
    controller: str
    deadline_ratio: float
    seed: int
    rounds: list[RoundTrace] = field(default_factory=list)
    mbo_runs: list[MBORunTrace] = field(default_factory=list)
    final_front_configs: list[ConfigKey] = field(default_factory=list)
    phase_transitions: list[dict[str, object]] = field(default_factory=list)

    @property
    def training_energy(self) -> float:
        return sum(r.energy for r in self.rounds)

    @property
    def mbo_energy(self) -> float:
        return sum(m.energy for m in self.mbo_runs)

    @property
    def total_energy(self) -> float:
        return self.training_energy + self.mbo_energy

    @property
    def mbo_overhead_fraction(self) -> float:
        """Fig. 13b: the MBO share of the campaign's total energy."""
        total = self.total_energy
        return self.mbo_energy / total if total > 0 else 0.0

    def explored_on_final_front(self, round_trace: RoundTrace) -> int:
        """Table 3's ``# Pareto``: explored configs on the final front."""
        front = set(self.final_front_configs)
        return sum(1 for config in round_trace.explored if config in front)


def replay_campaigns(events: Iterable[Event]) -> list[CampaignTrace]:
    """Group a flat event stream into per-campaign traces, in one pass.

    Campaigns are delimited by ``campaign.start`` / ``campaign.end``
    brackets; events outside any bracket (e.g. executor cell timings) are
    ignored here and only surface in :func:`render_summary`.  Only the
    open campaign's events are held, never the whole stream.
    """
    traces: list[CampaignTrace] = []
    for segment in iter_between(events, "campaign.start", "campaign.end"):
        start = segment[0].payload
        trace = CampaignTrace(
            device=str(start.get("device", "?")),
            task=str(start.get("task", "?")),
            controller=str(start.get("controller", "?")),
            deadline_ratio=float(start.get("deadline_ratio", 0.0)),
            seed=int(start.get("seed", 0)),
        )
        for event in segment[1:]:
            payload = event.payload
            if event.kind == "controller.round":
                trace.rounds.append(
                    RoundTrace(
                        round_index=int(payload["round"]),
                        phase=str(payload["phase"]),
                        jobs=int(payload["jobs"]),
                        deadline=float(payload["deadline"]),
                        elapsed=float(payload["elapsed"]),
                        energy=float(payload["energy"]),
                        missed=bool(payload["missed"]),
                        guardian_triggered=bool(payload["guardian_triggered"]),
                        exploited_jobs=int(payload["exploited_jobs"]),
                        explored=[_config_key(c) for c in payload.get("explored", [])],
                    )
                )
            elif event.kind == "mbo.run":
                trace.mbo_runs.append(
                    MBORunTrace(
                        round_index=int(payload.get("round", -1)),
                        latency=float(payload["latency"]),
                        energy=float(payload["energy"]),
                        n_observations=int(payload["n_observations"]),
                        batch_size=int(payload["batch_size"]),
                    )
                )
            elif event.kind == "campaign.front":
                trace.final_front_configs = [
                    _config_key(c) for c in payload.get("configs", [])
                ]
            elif event.kind == "controller.phase_transition":
                trace.phase_transitions.append(dict(payload))
        traces.append(trace)
    return traces


# -- Table 3 ----------------------------------------------------------------


def tab3_payload_from_trace(
    traces: Sequence[CampaignTrace],
) -> dict[str, object]:
    """Build the exact payload shape ``tab3_walkthrough.render`` consumes.

    Considers only BoFL campaigns; rows stop at the first exploitation
    round, mirroring the driver.
    """
    bofl = [t for t in traces if t.controller == "bofl"]
    if not bofl:
        raise ConfigurationError("trace contains no bofl campaign to derive Table 3 from")
    tasks: dict[str, dict[str, object]] = {}
    for trace in bofl:
        rows: list[dict[str, object]] = []
        for round_trace in trace.rounds:
            if round_trace.phase == "exploitation":
                break
            rows.append(
                {
                    "round": round_trace.round_index + 1,
                    "phase": round_trace.phase,
                    "explored": len(round_trace.explored),
                    "pareto": trace.explored_on_final_front(round_trace),
                }
            )
        tasks[trace.task] = {
            "rows": rows,
            "total_explored": sum(r["explored"] for r in rows),
            "total_pareto": sum(r["pareto"] for r in rows),
            "random_rounds": sum(1 for r in rows if r["phase"] == "random_exploration"),
            "mbo_rounds": sum(1 for r in rows if r["phase"] == "pareto_construction"),
        }
    return {
        "ratio": bofl[0].deadline_ratio,
        "device": bofl[0].device,
        "tasks": tasks,
    }


# -- Fig. 13 ----------------------------------------------------------------


def fig13_payload_from_trace(traces: Sequence[CampaignTrace]) -> dict[str, object]:
    """Build the payload shape ``fig13_overhead.render`` consumes."""
    from repro.experiments.fig13_overhead import PAPER_BANDS

    bofl = [t for t in traces if t.controller == "bofl"]
    if not bofl:
        raise ConfigurationError("trace contains no bofl campaign to derive Fig. 13 from")
    per_device: dict[str, dict[str, object]] = {}
    overall: dict[str, float] = {}
    by_device: dict[str, list[CampaignTrace]] = {}
    for trace in bofl:
        by_device.setdefault(trace.device, []).append(trace)
        overall[f"{trace.device}/{trace.task}"] = trace.mbo_overhead_fraction
    for device, device_traces in by_device.items():
        latencies = [m.latency for t in device_traces for m in t.mbo_runs]
        energies = [m.energy for t in device_traces for m in t.mbo_runs]
        per_device[device] = {
            "mean_latency": float(np.mean(latencies)) if latencies else 0.0,
            "max_latency": float(np.max(latencies)) if latencies else 0.0,
            "mean_energy": float(np.mean(energies)) if energies else 0.0,
            "max_energy": float(np.max(energies)) if energies else 0.0,
            "runs": len(latencies),
        }
    return {
        "per_device": per_device,
        "overall": overall,
        "paper_bands": PAPER_BANDS,
        "ratio": bofl[0].deadline_ratio,
    }


# -- summary ----------------------------------------------------------------


def render_summary(events: Iterable[Event]) -> str:
    """A human-oriented overview of a trace: kinds, campaigns, activity.

    One pass: event kinds are counted as the campaign brackets replay.
    """
    counts: Counter[str] = Counter()

    def counted() -> Iterator[Event]:
        for event in events:
            counts[event.kind] += 1
            yield event

    traces = replay_campaigns(counted())
    if not counts:
        return "(empty trace)"
    kind_table = ascii_table(
        ["kind", "events"],
        [(kind, counts[kind]) for kind in sorted(counts)],
        title="Event counts",
    )
    lines = [kind_table]
    if traces:
        rows = []
        for trace in traces:
            label = (
                f"{trace.device}/{trace.task}/{trace.controller}"
                f"/r{trace.deadline_ratio:g}/s{trace.seed}"
            )
            rows.append(
                (
                    label,
                    len(trace.rounds),
                    sum(len(r.explored) for r in trace.rounds),
                    len(trace.mbo_runs),
                    f"{trace.total_energy:.0f}",
                    f"{trace.mbo_overhead_fraction * 100:.2f}%",
                )
            )
        lines.append("")
        lines.append(
            ascii_table(
                ["campaign", "rounds", "explored", "MBO runs", "energy (J)", "MBO share"],
                rows,
                title="Campaigns",
            )
        )
        for trace in traces:
            if trace.rounds:
                energy_series = [r.energy for r in trace.rounds]
                lines.append("")
                lines.append(
                    f"per-round energy {trace.device}/{trace.task}/{trace.controller}: "
                    f"{sparkline(energy_series)}"
                )
    return "\n".join(lines)


#: Every view :func:`render_view` renders.
TRACE_VIEWS = ("summary", "tab3", "fig13", "fleet", "chaos", "service")


def render_view(events: Iterable[Event], view: str) -> str:
    """Render one ``repro trace`` view of an event stream, in one pass.

    The layer that emits the fleet, chaos or service events renders their
    view; the summary and campaign views replay the campaign brackets.
    Every view reads the stream as it comes and never holds all of it.
    """
    if view == "fleet":
        from repro.sim.fleet import render_fleet_trace

        return render_fleet_trace(events)
    if view == "chaos":
        from repro.sim.chaos import render_chaos_trace

        return render_chaos_trace(events)
    if view == "service":
        from repro.service.loadgen import render_service_trace

        return render_service_trace(events)
    if view not in TRACE_VIEWS:
        raise ConfigurationError(
            f"unknown trace view {view!r}; available: {', '.join(TRACE_VIEWS)}"
        )
    if view == "summary":
        return render_summary(events)
    traces = replay_campaigns(events)
    if view == "tab3":
        from repro.experiments.tab3_walkthrough import render as render_tab3

        return render_tab3(tab3_payload_from_trace(traces))
    from repro.experiments.fig13_overhead import render as render_fig13

    return render_fig13(fig13_payload_from_trace(traces))


def derive_overhead_fractions(
    traces: Sequence[CampaignTrace],
) -> dict[tuple[str, str], float]:
    """Fig. 13b fractions keyed by ``(device, task)`` (cross-check hook)."""
    return {
        (t.device, t.task): t.mbo_overhead_fraction
        for t in traces
        if t.controller == "bofl"
    }


def derive_tab3_counts(
    trace: CampaignTrace,
) -> list[tuple[int, str, int, int]]:
    """Per-round ``(round, phase, explored, pareto)`` rows (cross-check hook)."""
    rows: list[tuple[int, str, int, int]] = []
    for round_trace in trace.rounds:
        if round_trace.phase == "exploitation":
            break
        rows.append(
            (
                round_trace.round_index,
                round_trace.phase,
                len(round_trace.explored),
                trace.explored_on_final_front(round_trace),
            )
        )
    return rows


def find_campaign(
    traces: Sequence[CampaignTrace],
    *,
    device: Optional[str] = None,
    task: Optional[str] = None,
    controller: Optional[str] = None,
) -> CampaignTrace:
    """The first trace matching every given filter, or raise."""
    for trace in traces:
        if device is not None and trace.device != device:
            continue
        if task is not None and trace.task != task:
            continue
        if controller is not None and trace.controller != controller:
            continue
        return trace
    raise ConfigurationError(
        f"no campaign in trace matches device={device!r} task={task!r} "
        f"controller={controller!r}"
    )
