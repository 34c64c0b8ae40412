"""Persistent on-disk campaign result cache.

The in-memory memo in :mod:`repro.sim.runner` dies with the process; this
module provides the durable layer underneath it.  Entries are JSON files
keyed by a stable content hash of the full
:class:`~repro.sim.runner.CampaignSpec` — device, task, controller,
deadline ratio, rounds, seed, every :class:`BoFLConfig` field and the
chaos and servertune inputs — plus a schema version, so a change to
either the result format or the config surface invalidates old entries
instead of silently serving stale results.

Layout (one file per campaign)::

    <cache_dir>/
        a3f91c...e2.json    # {"schema": 1, "key": {...}, "campaign": {...}}

Writes are atomic (temp file + ``os.replace``), reads treat any corrupt or
mismatched file as a miss, and eviction is LRU by file mtime (reads touch
their entry) bounded by ``max_entries`` and optionally ``max_bytes``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.analysis.io import campaign_from_dict, campaign_to_dict
from repro.core.records import CampaignResult
from repro.errors import ConfigurationError
from repro.types import require_whole

if TYPE_CHECKING:
    from repro.sim.runner import CampaignSpec

#: Bump whenever the campaign key layout or the serialized result format
#: changes; older entries then read as misses and are rewritten.
#: v2: fault schedule + recovery policy joined the key (chaos campaigns).
#: v3: tokens grew a ``kind`` discriminator — fleet-layer artifacts share
#: the store's namespace with plain campaigns and must never collide.
#: v4: the optional servertune spec joined the key — an adaptive server
#: controller reshapes a campaign's per-round deadlines, so controller
#: state is part of what "the same campaign" means.
CACHE_SCHEMA_VERSION = 4

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Sidecar filename for cumulative traffic counters.  Deliberately not
#: ``*.json`` so the entry glob (and eviction) never sees it.
STATS_SIDECAR = "stats.meta"

#: Bump when the sidecar layout changes; older sidecars read as empty.
STATS_SCHEMA_VERSION = 1

#: The counters the sidecar accumulates across sessions.
_STAT_FIELDS = ("hits", "misses", "writes", "evictions")


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro/campaigns``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "campaigns"


def cache_token(spec: CampaignSpec) -> dict[str, object]:
    """A JSON-stable representation of a campaign spec.

    ``BoFLConfig`` is expanded field by field so that adding a knob (or
    changing a default) produces a different token — the persistent cache
    must never conflate configs that the in-memory key distinguishes.  The
    fault schedule and recovery policy expand the same way, so a faulted
    campaign can never be served its fault-free twin (or vice versa).
    The servertune spec expands likewise: an adaptive server controller
    reshapes the per-round deadlines, so a tuned campaign must never
    collide with its static twin.
    """
    config, schedule = spec.bofl_config, spec.fault_schedule
    policy, servertune = spec.recovery_policy, spec.servertune
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": "campaign",
        "device": spec.device,
        "task": spec.task,
        "controller": spec.controller,
        "deadline_ratio": spec.deadline_ratio,
        "rounds": spec.rounds,
        "seed": spec.seed,
        "bofl_config": None if config is None else dataclasses.asdict(config),
        "fault_schedule": None if schedule is None else schedule.to_dict(),
        "recovery_policy": None if policy is None else policy.to_dict(),
        "servertune": None if servertune is None else servertune.to_dict(),
    }


def cache_key_hash(spec: CampaignSpec) -> str:
    """A stable hex digest of :func:`cache_token` (the entry filename stem)."""
    canonical = json.dumps(cache_token(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of a persistent cache.

    ``hits``/``misses``/``writes``/``evictions`` are this instance's
    session counters; the ``total_*`` fields are cumulative across every
    session that touched the directory, read from the incrementally
    persisted sidecar — accurate even after an interrupted campaign.
    """

    directory: str
    entries: int
    total_bytes: int
    hits: int
    misses: int
    writes: int
    evictions: int
    total_hits: int = 0
    total_misses: int = 0
    total_writes: int = 0
    total_evictions: int = 0

    def render(self) -> str:
        lines = [
            f"cache directory : {self.directory}",
            f"entries         : {self.entries}",
            f"size            : {self.total_bytes / 1024:.1f} KiB",
            f"session hits    : {self.hits}",
            f"session misses  : {self.misses}",
            f"session writes  : {self.writes}",
            f"session evicted : {self.evictions}",
            f"lifetime hits   : {self.total_hits}",
            f"lifetime misses : {self.total_misses}",
            f"lifetime writes : {self.total_writes}",
            f"lifetime evicted: {self.total_evictions}",
        ]
        return "\n".join(lines)


class PersistentCampaignCache:
    """Durable campaign-result store under one directory.

    Safe to share between processes: writes are atomic renames and readers
    ignore files they cannot parse.  Hit/miss/write counters are per
    instance (session telemetry), while entry/byte counts are read from
    disk on demand.
    """

    def __init__(
        self,
        directory: Union[str, pathlib.Path, None] = None,
        *,
        max_entries: int = 4096,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.directory = pathlib.Path(directory) if directory else default_cache_dir()
        self.max_entries = require_whole("max_entries", max_entries, minimum=1)
        self.max_bytes = (
            None if max_bytes is None else require_whole("max_bytes", max_bytes, minimum=1)
        )
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        #: Operations counted while the directory did not exist yet; the
        #: first sidecar write adds them in.
        self._unsaved = dict.fromkeys(_STAT_FIELDS, 0)

    # -- paths ---------------------------------------------------------------

    def path_for(self, spec: CampaignSpec) -> pathlib.Path:
        return self.directory / f"{cache_key_hash(spec)}.json"

    @property
    def _sidecar_path(self) -> pathlib.Path:
        return self.directory / STATS_SIDECAR

    # -- cumulative stats sidecar -------------------------------------------

    def _read_sidecar(self) -> dict[str, int]:
        """Cumulative counters from disk; zeros on any kind of damage."""
        try:
            payload = json.loads(self._sidecar_path.read_text())
        except (OSError, json.JSONDecodeError):
            return dict.fromkeys(_STAT_FIELDS, 0)
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != STATS_SCHEMA_VERSION
        ):
            return dict.fromkeys(_STAT_FIELDS, 0)
        return {
            field: int(payload.get(field, 0))
            for field in _STAT_FIELDS
        }

    def _bump(self, field: str, amount: int = 1) -> None:
        """Count one cache operation, session-local and durably.

        The sidecar is rewritten atomically on *every* operation — not on
        shutdown — so ``repro cache stats`` stays accurate after an
        interrupted campaign.  A directory that does not exist yet (pure
        misses before the first write) is left untouched: the counts wait
        in memory, and the first ``put`` creates the directory and writes
        them with its own.
        """
        setattr(self, field, getattr(self, field) + amount)
        self._unsaved[field] += amount
        if not self.directory.is_dir():
            return
        totals = self._read_sidecar()
        for name, unsaved in self._unsaved.items():
            totals[name] += unsaved
        payload = {"schema": STATS_SCHEMA_VERSION, **totals}
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.directory), prefix=".tmp-stats-", suffix=".meta"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, self._sidecar_path)
            self._unsaved = dict.fromkeys(_STAT_FIELDS, 0)
        except OSError:
            # Stats persistence is best-effort; never fail the cache op.
            try:
                os.unlink(tmp_name)
            except (OSError, UnboundLocalError):
                pass

    def _entries(self) -> list[pathlib.Path]:
        if not self.directory.is_dir():
            return []
        return sorted(
            (p for p in self.directory.glob("*.json") if p.is_file()),
            key=lambda p: p.stat().st_mtime,
        )

    # -- read/write ----------------------------------------------------------

    def get(self, spec: CampaignSpec) -> Optional[CampaignResult]:
        """Load the cached result for ``spec``, or None on any kind of miss."""
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self._bump("misses")
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA_VERSION
            or payload.get("key") != cache_token(spec)
        ):
            self._bump("misses")
            return None
        try:
            result = campaign_from_dict(payload["campaign"])
        except (ConfigurationError, KeyError, TypeError):
            self._bump("misses")
            return None
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        self._bump("hits")
        return result

    def put(self, spec: CampaignSpec, result: CampaignResult) -> pathlib.Path:
        """Atomically persist ``result`` under ``spec`` and enforce bounds."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": cache_token(spec),
            "campaign": campaign_to_dict(result),
        }
        path = self.path_for(spec)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._bump("writes")
        self._evict()
        return path

    def _evict(self) -> None:
        """Drop oldest entries until within max_entries / max_bytes."""
        entries = self._entries()
        sizes = {p: p.stat().st_size for p in entries}
        total = sum(sizes.values())
        while entries and (
            len(entries) > self.max_entries
            or (self.max_bytes is not None and total > self.max_bytes)
        ):
            victim = entries.pop(0)
            try:
                victim.unlink()
            except OSError:
                continue
            total -= sizes[victim]
            self._bump("evictions")

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry (and the stats sidecar); returns files removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        try:
            self._sidecar_path.unlink()
        except OSError:
            pass
        return removed

    def stats(self) -> CacheStats:
        entries = self._entries()
        totals = self._read_sidecar()
        return CacheStats(
            directory=str(self.directory),
            entries=len(entries),
            total_bytes=sum(p.stat().st_size for p in entries),
            hits=self.hits,
            misses=self.misses,
            writes=self.writes,
            evictions=self.evictions,
            total_hits=totals["hits"],
            total_misses=totals["misses"],
            total_writes=totals["writes"],
            total_evictions=totals["evictions"],
        )

    def __len__(self) -> int:
        return len(self._entries())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PersistentCampaignCache({str(self.directory)!r}, "
            f"max_entries={self.max_entries}, max_bytes={self.max_bytes})"
        )
