"""The archetype-keyed decision cache.

An in-memory LRU store of :class:`~repro.service.api.DecisionPlan` values
keyed by the request token hash — the same key/schema discipline as the
persistent campaign cache (:mod:`repro.sim.cache`): keys are schema-
versioned canonical tokens, a token mismatch under a colliding hash reads
as a miss rather than serving a wrong plan, and eviction is LRU bounded
by ``max_entries``.  Callers hash a request once and pass the key to
every lookup with the request, whose token the entry is checked against.
Because identity fields stay out of the token, a
fleet of clients sharing one archetype collapses onto one entry — the
property that makes fleet-rate decision serving cheap.

Unlike the campaign cache this one is memory-only: plans are milliseconds
to recompute, so durability buys nothing, but the *shape* (stats, token
validation, eviction counters) is kept identical so the two caches read
the same in traces and docs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.service.api import DECISION_SCHEMA_VERSION, DecisionPlan, DecisionRequest
from repro.types import require_whole


@dataclass(frozen=True)
class DecisionCacheStats:
    """A point-in-time snapshot of one decision cache."""

    entries: int
    max_entries: int
    hits: int
    misses: int
    writes: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def render(self) -> str:
        lines = [
            f"entries      : {self.entries} / {self.max_entries}",
            f"hits         : {self.hits}",
            f"misses       : {self.misses}",
            f"hit rate     : {self.hit_rate:.1%}",
            f"writes       : {self.writes}",
            f"evictions    : {self.evictions}",
        ]
        return "\n".join(lines)


class DecisionCache:
    """LRU cache of decision plans keyed by request-token hashes."""

    def __init__(self, max_entries: int = 2048) -> None:
        self.max_entries = require_whole("max_entries", max_entries, minimum=1)
        #: hash -> (token, plan); insertion order doubles as LRU order.
        self._entries: "OrderedDict[str, tuple[dict[str, object], DecisionPlan]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0

    def get(self, key: str, request: DecisionRequest) -> Optional[DecisionPlan]:
        """The plan cached under ``key``, or None on any kind of miss.

        ``key`` is the request's :func:`~repro.service.api.request_key_hash`,
        which the caller computed once.  A stored token that does not equal
        the request's token (hash collision, or a schema bump that left a
        stale entry behind) is a miss — the mismatched entry is dropped,
        never served.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        token, plan = entry
        if token != request.token() or plan.schema != DECISION_SCHEMA_VERSION:
            del self._entries[key]
            self.misses += 1
            return None
        self._entries.move_to_end(key)  # LRU touch
        self.hits += 1
        return plan

    def put(self, key: str, request: DecisionRequest, plan: DecisionPlan) -> None:
        """Store ``plan`` under ``key`` with the request's token; enforce the bound."""
        self._entries[key] = (request.token(), plan)
        self._entries.move_to_end(key)
        self.writes += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def peek(self, key: str, request: DecisionRequest) -> Optional[DecisionPlan]:
        """Pure lookup: no counter updates, no LRU touch.

        The service engine peeks while an evaluation is only *tentatively*
        settled (it may still be in flight); the counters are updated by a
        real :meth:`get` once the completion is committed.
        """
        entry = self._entries.get(key)
        if entry is None or entry[0] != request.token():
            return None
        return entry[1]

    def clear(self) -> int:
        removed = len(self._entries)
        self._entries.clear()
        return removed

    def stats(self) -> DecisionCacheStats:
        return DecisionCacheStats(
            entries=len(self._entries),
            max_entries=self.max_entries,
            hits=self.hits,
            misses=self.misses,
            writes=self.writes,
            evictions=self.evictions,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DecisionCache(entries={len(self._entries)}, max_entries={self.max_entries})"
