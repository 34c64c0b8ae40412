"""Typed, timestamped event records and the process-local event log.

An :class:`Event` is one thing a subsystem did — a guardian decision, an
MBO refit, a phase transition — stamped with the *simulated* clock (or a
caller-chosen time base) and carrying a flat JSON-safe payload.  The
:class:`EventLog` collects them in memory (optionally as a bounded ring)
and hands each one to an optional ``event_sink`` as it is emitted; a
:class:`repro.obs.columnar.TraceWriter` is that sink when a trace is
recorded, so traces can be archived, diffed, and replayed through the
analysis renderers.  :func:`iter_jsonl` reads the JSON Lines container
back.

Event kinds follow a ``layer.verb`` naming scheme; the authoritative list
lives in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter, deque
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.types import require_number, require_text

#: Bump when the serialized event layout changes; readers reject newer
#: traces instead of misinterpreting them.
TRACE_FORMAT_VERSION = 1

#: The authoritative registry of event kinds the library may emit.
#:
#: ``repro analyze`` (checker ``obs-event-kind``) statically rejects any
#: ``emit()`` call site in ``src/repro/`` whose kind is not a literal
#: member of this set, so the schema that ``repro trace`` replays stays
#: closed: adding a kind means registering it here *and* documenting its
#: payload in ``docs/observability.md``.  Tests and ad-hoc scripts are
#: outside the checker's scope and may emit anything.
EVENT_KINDS = frozenset(
    {
        "trace.header",
        "campaign.start",
        "campaign.end",
        "campaign.front",
        "campaign.cache",
        "controller.round",
        "controller.phase_transition",
        "mbo.run",
        "mbo.fit",
        "mbo.suggest",
        "mbo.jitter_escalated",
        "guardian.decision",
        "ilp.solve",
        "executor.cell",
        "server.round",
        "server.round_failed",
        "server.aggregation_fallback",
        "fleet.start",
        "fleet.topology",
        "fleet.enqueue",
        "fleet.aggregate",
        "fleet.staleness_drop",
        "fleet.round",
        "fleet.end",
        "hierarchy.edge_aggregate",
        "hierarchy.aggregate",
        "service.start",
        "service.evaluate",
        "service.decision",
        "service.degraded",
        "service.end",
        "loadgen.pass",
        "servertune.knobs",
        "servertune.override",
        "servertune.halt",
        "servertune.member",
        "servertune.mutation",
        "servertune.generation",
        "servertune.frontier",
        "chaos.schedule",
        "fault.injected",
        "fault.cleared",
        "recovery.checkpoint",
        "recovery.restore",
        "recovery.escalation",
    }
)


#: Payload keys that carry wall-clock durations — the only
#: nondeterministic data the event schema permits (``t`` is always
#: simulated or round-relative time).  Deterministic trace capture
#: (``EventLog(deterministic=True)``) drops these keys at emit time so a
#: fixed seed yields byte-identical JSONL traces across runs; the chaos
#: determinism gate relies on this.
WALL_CLOCK_PAYLOAD_KEYS = frozenset({"seconds", "wall_seconds"})


@dataclass(frozen=True)
class Event:
    """One timestamped observation of subsystem behaviour.

    ``t`` is in seconds on whatever clock the emitter used — simulated
    time for device-bound layers, round-relative elapsed time for the
    guardian, wall-clock durations never (those belong in the payload).
    """

    kind: str
    t: float = 0.0
    payload: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ConfigurationError("event kind must be a non-empty string")

    @property
    def layer(self) -> str:
        """The subsystem prefix of :attr:`kind` (``"guardian.decision"`` -> ``"guardian"``)."""
        return self.kind.split(".", 1)[0]

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "t": self.t, **self.payload}

    @classmethod
    def from_dict(cls, raw: dict[str, object]) -> "Event":
        """Rebuild a recorded event, checking ``kind`` and ``t`` (the
        emitter's hot path builds events unchecked)."""
        if not isinstance(raw, dict):
            raise ConfigurationError(f"not an event record: {raw!r}")
        payload = {k: v for k, v in raw.items() if k not in ("kind", "t")}
        return cls(
            kind=require_text("kind", raw.get("kind")),
            t=require_number("t", raw.get("t", cls.t)),
            payload=payload,
        )


class EventLog:
    """Process-local, append-only event collector.

    Parameters
    ----------
    capacity:
        When set, keep only the most recent ``capacity`` events (a ring
        buffer) so always-on instrumentation stays bounded in memory.
        ``None`` keeps everything.
    event_sink:
        An optional callable receiving every :class:`Event` at emit time
        (after deterministic stripping) — the hook a
        :class:`repro.obs.columnar.TraceWriter` attaches to, so a trace
        streams to disk as it is emitted.
    deterministic:
        When True, strip :data:`WALL_CLOCK_PAYLOAD_KEYS` from every
        payload at emit time so the captured trace is a pure function of
        the simulation seed (byte-identical across runs).
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        deterministic: bool = False,
        event_sink: Optional[Callable[["Event"], None]] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.event_sink = event_sink
        self.deterministic = deterministic
        self._events: deque[Event] = deque(maxlen=capacity)
        #: Total events ever emitted (survives ring eviction).
        self.emitted = 0

    # -- writing -----------------------------------------------------------

    def emit(self, kind: str, t: float = 0.0, **payload: object) -> Event:
        """Record one event and return it."""
        if self.deterministic:
            payload = {
                k: v for k, v in payload.items()
                if k not in WALL_CLOCK_PAYLOAD_KEYS
            }
        event = Event(kind=kind, t=float(t), payload=payload)
        self._events.append(event)
        self.emitted += 1
        if self.event_sink is not None:
            self.event_sink(event)
        return event

    # -- reading -----------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> list[Event]:
        """All retained events, optionally filtered by exact kind."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def counts_by_kind(self) -> dict[str, int]:
        """Retained event counts keyed by kind."""
        return dict(Counter(e.kind for e in self._events))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def clear(self) -> None:
        self._events.clear()


def iter_jsonl(path: Union[str, pathlib.Path]) -> Iterator[Event]:
    """Stream a JSONL trace, line by line.

    Raises :class:`ConfigurationError` on unreadable files, malformed
    lines, or an unsupported format version.  A missing header is
    tolerated as long as every line parses as an event.  Memory is
    bounded by one line, not the file.
    """
    path = pathlib.Path(path)
    try:
        handle = path.open()
    except OSError as error:
        raise ConfigurationError(f"cannot read trace {path}: {error}") from error
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{path}:{lineno} is not valid JSON: {error}"
                ) from error
            if not isinstance(raw, dict):
                raise ConfigurationError(f"{path}:{lineno} is not an event object")
            if raw.get("kind") == "trace.header":
                version = raw.get("format_version")
                if version != TRACE_FORMAT_VERSION:
                    raise ConfigurationError(
                        f"{path} has trace format version {version!r}; "
                        f"this library reads version {TRACE_FORMAT_VERSION}"
                    )
                continue
            yield Event.from_dict(raw)


def read_jsonl(path: Union[str, pathlib.Path]) -> list[Event]:
    """Materialize :func:`iter_jsonl`."""
    return list(iter_jsonl(path))


def iter_between(
    events: Iterable[Event], start_kind: str, end_kind: str
) -> Iterator[list[Event]]:
    """Stream a flat event stream's ``[start, ..., end]`` segments.

    Used to group per-campaign events out of a trace that may contain
    several campaigns back to back, holding one segment at a time.  Events
    outside any bracket are dropped, a start inside an open bracket drops
    the open segment, and an unterminated bracket yields its partial
    segment.
    """
    current: Optional[list[Event]] = None
    for event in events:
        if event.kind == start_kind:
            current = [event]
            continue
        if current is None:
            continue
        current.append(event)
        if event.kind == end_kind:
            yield current
            current = None
    if current is not None:
        yield current


def events_between(
    events: Iterable[Event], start_kind: str, end_kind: str
) -> list[list[Event]]:
    """Materialize :func:`iter_between`."""
    return list(iter_between(events, start_kind, end_kind))
