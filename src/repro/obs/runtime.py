"""The process-global observability switch and emit facade.

Instrumented layers never hold an :class:`~repro.obs.events.EventLog`
directly; they call the module functions here, which no-op (one attribute
load and a ``None`` check) unless a session is active.  Observability is
**disabled by default** — the instrumented hot paths must stay within
noise of un-instrumented benchmark numbers — and is turned on either
explicitly::

    from repro import obs

    with obs.session() as session:
        run_campaign(...)
    obs.write_trace("trace.jsonl", session.log)

or for a whole process with :func:`enable` / :func:`disable`.  With
``capacity=1`` and a trace writer's ``write_event`` as ``event_sink``, a
session streams its trace to disk instead (every CLI ``--trace``).

Worker processes spawned by the parallel executor inherit the *default*
(disabled) state: traces are a serial-path feature, and parallel results
are byte-identical with or without an active session in the parent.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterator
from typing import Optional

from repro.obs.events import Event, EventLog
from repro.obs.metrics import NULL_TIMER, Metrics, TimerSpan


class ObsSession:
    """One activation of the observability layer: an event log + metrics.

    ``deterministic=True`` captures a seed-reproducible trace: wall-clock
    payload fields are stripped at emit time (see
    :data:`repro.obs.events.WALL_CLOCK_PAYLOAD_KEYS`).
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        deterministic: bool = False,
        event_sink: Optional[Callable[[Event], None]] = None,
    ) -> None:
        self.log = EventLog(
            capacity=capacity, deterministic=deterministic, event_sink=event_sink
        )
        self.metrics = Metrics()


#: The active session, or None (disabled — the default).
_ACTIVE: Optional[ObsSession] = None


def enabled() -> bool:
    """Whether an observability session is currently active."""
    return _ACTIVE is not None


def current() -> Optional[ObsSession]:
    """The active session, or None."""
    return _ACTIVE


def enable(
    capacity: Optional[int] = None,
    deterministic: bool = False,
    event_sink: Optional[Callable[[Event], None]] = None,
) -> ObsSession:
    """Activate a fresh session (replacing any active one) and return it."""
    global _ACTIVE
    _ACTIVE = ObsSession(
        capacity=capacity, deterministic=deterministic, event_sink=event_sink
    )
    return _ACTIVE


def disable() -> None:
    """Deactivate observability; subsequent emits are no-ops."""
    global _ACTIVE
    _ACTIVE = None


@contextlib.contextmanager
def suspended() -> Iterator[None]:
    """Context manager: deactivate observability, restore it after.

    The inverse of :func:`session` for mixed-phase drivers: code that
    interleaves executor-sharded trace gathering (whose cache/cell
    events depend on worker count and cache warmth) with pure
    composition runs the gathering under ``suspended()`` so a
    deterministic trace captures only the composition.  The PBT driver
    relies on this for its serial==sharded byte-identity gate.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    try:
        yield
    finally:
        _ACTIVE = previous


@contextlib.contextmanager
def session(
    capacity: Optional[int] = None,
    deterministic: bool = False,
    event_sink: Optional[Callable[[Event], None]] = None,
) -> Iterator[ObsSession]:
    """Context manager: activate a session, restore the previous state after.

    Nested sessions are allowed; the inner one simply shadows the outer
    for its duration (tests rely on this for isolation).  ``event_sink``
    streams every event to a callable at emit time — pair it with a small
    ``capacity`` for bounded-memory trace capture at fleet scale.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = ObsSession(
        capacity=capacity, deterministic=deterministic, event_sink=event_sink
    )
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


# -- the facade the instrumented layers call --------------------------------


def emit(kind: str, t: float = 0.0, **payload: object) -> None:
    """Record an event on the active session; no-op when disabled."""
    active = _ACTIVE
    if active is not None:
        active.log.emit(kind, t, **payload)


def count(name: str, amount: float = 1) -> None:
    """Increment a counter on the active session; no-op when disabled."""
    active = _ACTIVE
    if active is not None:
        active.metrics.count(name, amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active session; no-op when disabled."""
    active = _ACTIVE
    if active is not None:
        active.metrics.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Histogram observation on the active session; no-op when disabled."""
    active = _ACTIVE
    if active is not None:
        active.metrics.observe(name, value)


def timer(name: str) -> "TimerSpan":
    """A timing span on the active session; a shared no-op when disabled."""
    active = _ACTIVE
    if active is None:
        return NULL_TIMER
    return active.metrics.timer(name)
