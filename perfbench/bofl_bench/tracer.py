"""In-memory span tracer installed from outside the program.

The traced run wraps public entry points of the ``repro`` package (see
:mod:`bofl_bench.probes`) without editing anything under ``src/``.  A
wrapped call records one :class:`Span` — id, parent, op id, name, start,
end — on a stack, so every span's parent is the innermost span open when
it started.  Entry points hit tens of thousands of times per run
(``SimulatedDevice.run_job``) are wrapped in *busy* mode instead: a call
count and busy seconds, charged to the enclosing span so that self times
still add up.

Layer self time is the sum of its spans' self times: a span's duration
minus the union of its children's intervals minus the busy time charged
to it.  With the root span covering the measured region, the layer self
times plus the root's own self time (the remainder: code outside every
listed layer) sum to the root's duration.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Optional

#: Name of the span covering one measured unit; its self time is the remainder.
ROOT = "bench.unit"

#: Called after a wrapped call returns, with its args, kwargs and result.
AfterHook = Callable[[tuple[Any, ...], dict[str, Any], Any], None]


@dataclass(frozen=True)
class Span:
    """One closed span. ``parent`` is -1 for a span opened at top level."""

    id: int
    parent: int
    op: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and busy counters; installs and removes wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        #: busy-mode name -> [calls, seconds]
        self.busy: dict[str, list[float]] = {}
        #: span id -> busy seconds charged to it by busy-mode calls inside it
        self.busy_in: Counter[int] = Counter()
        #: free-form counters the probes' hooks maintain
        self.counts: Counter[str] = Counter()
        #: free-form per-call values (e.g. ILP candidate counts)
        self.values: dict[str, list[float]] = defaultdict(list)
        #: free-form last-seen objects (e.g. the service's final stats)
        self.latest: dict[str, Any] = {}
        #: Index of the top-level call (direct child of the root) being traced.
        self.op = 0
        self._stack: list[tuple[int, int, str, float]] = []
        self._next_id = 0
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> None:
        if len(self._stack) == 1:
            # A direct child of the root starts the next operation.
            self.op += 1
        self._stack.append((self._next_id, self.op, name, self.clock()))
        self._next_id += 1

    def _close(self) -> None:
        span_id, op, name, start = self._stack.pop()
        end = self.clock()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(Span(span_id, parent, op, name, start, end))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    # -- wrapping -------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        busy: bool = False,
        after: Optional[AfterHook] = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`uninstall`.

        ``owner`` is a module (the name as that module imported it) or a
        class (a plain function defined on that class itself).
        """
        fn = vars(owner)[attr]
        wrapper = (self._busy_wrapper if busy else self._span_wrapper)(fn, name, after)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def _span_wrapper(
        self, fn: Callable[..., Any], name: str, after: Optional[AfterHook]
    ) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{name}.errors"] += 1
                raise
            finally:
                self._close()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _busy_wrapper(
        self, fn: Callable[..., Any], name: str, after: Optional[AfterHook]
    ) -> Callable[..., Any]:
        stats = self.busy.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                stats[0] += 1
                stats[1] += elapsed
                if self._stack:
                    self.busy_in[self._stack[-1][0]] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path: Any) -> None:
        """Write every span, then every busy counter, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.id):
                handle.write(
                    json.dumps(
                        {"id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                         "start": s.start, "end": s.end},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            for name, (calls, seconds) in sorted(self.busy.items()):
                handle.write(
                    json.dumps({"busy": name, "calls": int(calls), "seconds": seconds})
                    + "\n"
                )


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    current: Optional[list[float]] = None
    for start, end in clipped:
        if current is None or start > current[1]:
            if current is not None:
                total += current[1] - current[0]
            current = [start, end]
        else:
            current[1] = max(current[1], end)
    if current is not None:
        total += current[1] - current[0]
    return total


def self_times(
    spans: Iterable[Span], busy_in: Optional[Mapping[int, float]] = None
) -> dict[int, float]:
    """Each span's duration minus its children's union minus busy time charged to it."""
    spans = list(spans)
    busy_in = busy_in or {}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - union_length(children[s.id], s.start, s.end) - busy_in.get(s.id, 0.0)
        for s in spans
    }


def name_self_times(tracer: Tracer) -> dict[str, float]:
    """Self seconds per span name; a busy-mode name gets its busy seconds."""
    own = self_times(tracer.spans, tracer.busy_in)
    names: dict[str, float] = defaultdict(float)
    for s in tracer.spans:
        names[s.name] += own[s.id]
    for name, (_, seconds) in tracer.busy.items():
        names[name] += seconds
    return dict(names)


def layer_self_times(name_self: Mapping[str, float]) -> dict[str, float]:
    """Group :func:`name_self_times` by layer, the root's as ``remainder``."""
    layers: dict[str, float] = defaultdict(float)
    for name, seconds in name_self.items():
        layers["remainder" if name == ROOT else name.split(".", 1)[0]] += seconds
    return dict(layers)


def durations(tracer: Tracer, name: str) -> list[float]:
    """Every recorded duration of spans called ``name``, in seconds."""
    return [s.duration for s in tracer.spans if s.name == name]
