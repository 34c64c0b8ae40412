"""In-process metrics: counters, gauges, and histogram timers.

A :class:`Metrics` registry is cheap enough to leave enabled in
benchmarks: counters and gauges are single dict operations and a
histogram observation is a handful of float updates (count/sum/min/max),
with no per-sample allocation.  Timers wrap ``time.perf_counter`` in a
context manager and feed a histogram, so wall-clock costs (GP refits,
ILP solves, campaign cells) become queryable distributions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Protocol

from repro.errors import ConfigurationError

#: Every counter name the tree may record.  Entries ending in ``*`` are
#: sanctioned dynamic families (f-string counters keyed by a small
#: enum-like suffix).  ``repro analyze`` closes this registry in both
#: directions — an unregistered count() call and a dead entry here are
#: both findings — so keep it in lockstep with the emitting code.
COUNTER_NAMES = frozenset(
    {
        "campaign.cache_*",
        "controller.explorations",
        "controller.rounds",
        "executor.cells_*",
        "faults.cleared",
        "faults.injected",
        "fleet.aggregations",
        "fleet.enqueues",
        "fleet.rounds",
        "fleet.staleness_drops",
        "hierarchy.aggregations",
        "hierarchy.edge_aggregations",
        "guardian.checks",
        "guardian.rejections",
        "ilp.nodes_expanded",
        "ilp.solves",
        "mbo.ehvi_evaluations",
        "mbo.gp_fits",
        "mbo.jitter_escalations",
        "mbo.suggest_short_circuits",
        "mbo.warm_fits",
        "perfmodel.tensor_builds",
        "recovery.checkpoints",
        "recovery.escalations",
        "recovery.restores",
        "server.aggregation_fallbacks",
        "server.dropouts",
        "server.failed_rounds",
        "server.rounds",
        "servertune.exploits",
        "servertune.explores",
        "servertune.generations",
        "servertune.halts",
        "servertune.members",
        "servertune.overrides",
        "servertune.rounds",
        "service.cache_hits",
        "service.cache_misses",
        "service.coalesced",
        "service.fallbacks",
        "service.rejections",
        "service.requests",
        "service.timeouts",
    }
)


class TimerSpan(Protocol):
    """Structural type of a timing span: Timer and the shared no-op."""

    @property
    def elapsed(self) -> float: ...

    def __enter__(self) -> "TimerSpan": ...

    def __exit__(self, *exc_info: object) -> None: ...


@dataclass
class Histogram:
    """Streaming summary of one value distribution (no sample retention)."""

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    #: Sum of squares for variance (Welford is overkill at this precision).
    total_sq: float = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return max(0.0, self.total_sq / self.count - self.mean**2)

    def to_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


class Timer:
    """Context manager feeding elapsed wall seconds into a histogram."""

    __slots__ = ("_histogram", "_started", "elapsed")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._started
        self._histogram.observe(self.elapsed)


class _NullTimer:
    """Shared no-op span handed out when observability is disabled."""

    __slots__ = ()
    elapsed = 0.0

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


NULL_TIMER = _NullTimer()


class Metrics:
    """A named registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- counters ----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ConfigurationError(f"counter increments must be >= 0, got {amount}")
        self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    # -- gauges ------------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        self.gauges[name] = float(value)

    # -- histograms / timers ----------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name`` (created on first use)."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def timer(self, name: str) -> Timer:
        """A context-manager span recording wall seconds into ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        return Timer(histogram)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """All metric values as one JSON-safe dict."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
        }

    def render(self) -> str:
        """Aligned plain-text dump (debugging / trace summaries)."""
        lines: list[str] = []
        rows: list[tuple[str, str]] = []
        for name in sorted(self.counters):
            rows.append((name, f"{self.counters[name]:g}"))
        for name in sorted(self.gauges):
            rows.append((name, f"{self.gauges[name]:g}"))
        for name in sorted(self.histograms):
            h = self.histograms[name]
            rows.append(
                (name, f"n={h.count} mean={h.mean:.6f} min={h.minimum:.6f} max={h.maximum:.6f}")
            )
        if not rows:
            return "(no metrics recorded)"
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            lines.append(f"{name.ljust(width)} : {value}")
        return "\n".join(lines)
