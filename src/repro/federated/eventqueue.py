"""Structured-array event queues for fleet-scale composition.

A per-event loop walks one Python object per client report; at 100k–1M
clients that loop (and the per-launch RNG draw behind it) *is* the cost
of composition.  This module flattens every client's trace into CSR-style
numpy columns once, up front:

* :class:`FleetTraceArrays` — one flat float64/bool column per record
  field (``elapsed``, ``energy``, ``deadline``, ``missed``, ``dropped``)
  plus the precomputed per-record ``upload`` time, indexed by
  ``offsets[i]:offsets[i+1]`` for client ``i``.
* :func:`build_trace_arrays` — fills the columns, drawing each client's
  upload times as **one vectorized call** on its private RNG stream.
  ``numpy.random.Generator`` draws ``normal(mu, sigma, size=k)`` from the
  same bit stream as ``k`` sequential scalar draws, so the precomputed
  uploads are bit-identical to per-launch
  :meth:`~repro.federated.transport.LinkModel.transfer_time` draws.  ``shards``
  splits the fill across contiguous client ranges on a thread pool;
  every range writes a disjoint slice of the same preallocated arrays,
  so serial and sharded builds are byte-identical by construction.
* :func:`async_arrival_times` — the FedBuff streaming schedule.  Each
  client's k-th report lands at ``((at[k-1] + elapsed[k]) + upload[k])``;
  the interleaved-cumsum below reproduces that exact left-to-right float
  association, not the (differently rounded) ``cumsum(elapsed + upload)``.
* :func:`resolve_pop_order` — the drain order of the FedBuff event heap,
  recovered from arrival times alone.  That heap keys on
  ``(at, push_counter)``: initial launches take counters ``0..n-1`` in
  client order, every relaunch takes the counter current at its parent's
  pop.  Ties in ``at`` therefore resolve initial-before-relaunch, then
  by client index (both initial) or by parent pop position (both
  relaunches) — and a relaunch only becomes poppable after its parent.
  The Hypothesis suite in ``tests/federated/test_event_queue_properties.py``
  checks it against a literal ``heapq`` drain.

The vectorized engine (:mod:`repro.federated.vector_engine`) composes on
these arrays; the differential suite in
``tests/federated/test_vectorized_equivalence.py`` holds the result
byte-identical to the per-event reference loop kept under ``tests/``.
"""

from __future__ import annotations

import heapq
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.federated.transport import LinkModel

if TYPE_CHECKING:
    from repro.federated.async_engine import FleetClient


@dataclass
class FleetTraceArrays:
    """CSR-flattened fleet traces: client ``i`` owns rows ``offsets[i]:offsets[i+1]``."""

    client_ids: list[str]
    offsets: np.ndarray
    elapsed: np.ndarray
    energy: np.ndarray
    deadline: np.ndarray
    upload: np.ndarray
    missed: np.ndarray
    dropped: np.ndarray
    #: Per-client aggregation weight basis (``float(n_samples)``).
    n_samples: np.ndarray
    #: Uncapped trace length per client: the sync progress divisor uses
    #: the full trace even when composition caps consumption at ``rounds``.
    full_lengths: np.ndarray

    @property
    def n_clients(self) -> int:
        return len(self.client_ids)

    @property
    def lengths(self) -> np.ndarray:
        """Capped (composable) records per client."""
        return np.diff(self.offsets)

    @property
    def n_events(self) -> int:
        return int(self.offsets[-1])


def _fill_uploads(
    clients: Sequence["FleetClient"],
    arrays: FleetTraceArrays,
    link: LinkModel,
    lo: int,
    hi: int,
) -> None:
    """Fill ``arrays.upload`` for clients ``lo:hi`` (a disjoint slice).

    Replicates per-launch pricing bit-for-bit: one lognormal draw per
    *live* (non-dropped) record in trace order from the client's private
    stream, plus the first-matching transport-stall window's
    ``magnitude x deadline`` delay.
    """
    variability = link.variability
    bandwidth = link.bandwidth_mbps
    latency = link.latency
    for i in range(lo, hi):
        start, end = int(arrays.offsets[i]), int(arrays.offsets[i + 1])
        if start == end:
            continue
        client = clients[i]
        live = ~arrays.dropped[start:end]
        n_live = int(np.count_nonzero(live))
        if n_live == 0:
            continue
        if variability > 0:
            rng = np.random.default_rng(client.upload_seed)
            draws = rng.normal(-0.5 * variability**2, variability, size=n_live)
            transfer = latency + client.model_size_mbit / (bandwidth * np.exp(draws))
        else:
            transfer = np.full(
                n_live, latency + client.model_size_mbit / bandwidth
            )
        upload = np.zeros(end - start)
        upload[live] = transfer
        if client.stall_windows:
            local = np.arange(end - start)
            unstalled = live.copy()
            for window in client.stall_windows:
                active = (local >= window.start_round) & (local < window.end_round)
                sel = active & unstalled
                if np.any(sel):
                    upload[sel] = (
                        upload[sel]
                        + window.magnitude * arrays.deadline[start:end][sel]
                    )
                    unstalled[sel] = False
        arrays.upload[start:end] = upload


def build_trace_arrays(
    clients: Sequence["FleetClient"],
    link: LinkModel,
    *,
    rounds_cap: Optional[int] = None,
    shards: Optional[int] = None,
) -> FleetTraceArrays:
    """Flatten client traces into columns (optionally sharded over threads).

    ``rounds_cap`` bounds every client's composable trace (async streams
    at most ``rounds`` local rounds per client) without touching the
    clients' own record lists; the full trace length is still recorded per
    client for the sync progress divisor.  ``shards``
    partitions the upload-draw fill over contiguous client ranges on a
    thread pool — a pure write-disjoint parallelization, byte-identical
    to the serial fill for any shard count.
    """
    if shards is not None and shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    n = len(clients)
    full_lengths = np.fromiter(
        (len(c.records) for c in clients), dtype=np.int64, count=n
    )
    if rounds_cap is not None:
        lengths = np.minimum(full_lengths, rounds_cap)
    else:
        lengths = full_lengths.copy()
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    n_events = int(offsets[-1])
    arrays = FleetTraceArrays(
        client_ids=[c.client_id for c in clients],
        offsets=offsets,
        elapsed=np.zeros(n_events),
        energy=np.zeros(n_events),
        deadline=np.zeros(n_events),
        upload=np.zeros(n_events),
        missed=np.zeros(n_events, dtype=bool),
        dropped=np.zeros(n_events, dtype=bool),
        n_samples=np.fromiter(
            (float(c.n_samples) for c in clients), dtype=float, count=n
        ),
        full_lengths=full_lengths,
    )
    # Archetype-pooled fleets share RoundRecord objects between clients;
    # extracting each unique trace once collapses the 100k-client column
    # fill to one pass per archetype variant.
    column_cache: dict[
        tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ] = {}
    for i, client in enumerate(clients):
        start, end = int(offsets[i]), int(offsets[i + 1])
        if start == end:
            continue
        records = client.records[: end - start]
        key = tuple(id(r) for r in records)
        cached = column_cache.get(key)
        if cached is None:
            cached = (
                np.fromiter((r.elapsed for r in records), dtype=float),
                np.fromiter((r.energy for r in records), dtype=float),
                np.fromiter((r.deadline for r in records), dtype=float),
                np.fromiter((r.missed for r in records), dtype=bool),
                np.fromiter((r.phase == "dropped" for r in records), dtype=bool),
            )
            column_cache[key] = cached
        arrays.elapsed[start:end] = cached[0]
        arrays.energy[start:end] = cached[1]
        arrays.deadline[start:end] = cached[2]
        arrays.missed[start:end] = cached[3]
        arrays.dropped[start:end] = cached[4]
    n_shards = 1 if shards is None else min(shards, n)
    if n_shards <= 1:
        _fill_uploads(clients, arrays, link, 0, n)
    else:
        bounds = np.linspace(0, n, n_shards + 1).astype(int)
        with ThreadPoolExecutor(max_workers=n_shards) as pool:
            futures = [
                pool.submit(
                    _fill_uploads, clients, arrays, link,
                    int(bounds[s]), int(bounds[s + 1]),
                )
                for s in range(n_shards)
            ]
            for future in futures:
                future.result()
    return arrays


def async_arrival_times(arrays: FleetTraceArrays) -> np.ndarray:
    """Per-record arrival times under FedBuff streaming (client-local chains).

    Client ``i``'s k-th report arrives at ``((at[k-1] + elapsed) + upload)``
    with ``at[-1] = 0.0``.  Interleaving elapsed/upload and running one
    cumulative sum reproduces that exact association order, so the result
    is bit-identical to launch-by-launch accumulation.
    """
    n_events = arrays.n_events
    at = np.zeros(n_events)
    offsets = arrays.offsets
    for i in range(arrays.n_clients):
        start, end = int(offsets[i]), int(offsets[i + 1])
        if start == end:
            continue
        k = end - start
        interleaved = np.empty(2 * k)
        interleaved[0::2] = arrays.elapsed[start:end]
        interleaved[1::2] = arrays.upload[start:end]
        at[start:end] = np.cumsum(interleaved)[1::2]
    return at


def _heap_key(
    flat: int,
    offsets_starts: np.ndarray,
    client_of: np.ndarray,
    init_rank: np.ndarray,
    pos: np.ndarray,
) -> tuple[int, int]:
    """The push-counter ordering class of one tied event."""
    if flat == int(offsets_starts[client_of[flat]]):
        # Initial launch: counters 0..n-1 in client order, so any initial
        # event outranks any relaunch and initials rank by client index.
        return (0, int(init_rank[client_of[flat]]))
    # Relaunch: the push counter is taken at the parent's pop, so two tied
    # relaunches rank by their parents' pop positions.
    return (1, int(pos[flat - 1]))


def resolve_pop_order(at: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Flat event indices in FedBuff heap drain order.

    ``at`` holds every event's arrival time (client ``i`` owns
    ``offsets[i]:offsets[i+1]``, chained so ``at`` is nondecreasing within
    a client).  With all-distinct times the drain is a stable sort; ties
    replay the ``(at, push_counter)`` heap semantics exactly — including
    the constraint that a relaunch is only poppable after its parent
    popped.
    """
    n_events = int(at.shape[0])
    order = np.argsort(at, kind="stable")
    sorted_at = at[order]
    tie_mask = sorted_at[1:] == sorted_at[:-1] if n_events > 1 else np.zeros(0, bool)
    if not np.any(tie_mask):
        return order
    lengths = np.diff(offsets)
    client_of = np.repeat(np.arange(lengths.shape[0]), lengths)
    has_records = lengths > 0
    init_rank = np.cumsum(has_records) - 1
    pos = np.empty(n_events, dtype=np.int64)
    pos[order] = np.arange(n_events)
    # Tie runs, ascending: [s, e) spans of equal sorted_at.
    boundaries = np.flatnonzero(tie_mask)
    run_start = boundaries[
        np.concatenate(([True], np.diff(boundaries) > 1))
    ]
    offsets_starts = offsets[:-1]
    for s in run_start.tolist():
        e = s + 1
        while e < n_events and sorted_at[e] == sorted_at[s]:
            e += 1
        members = order[s:e]
        # Poppable now: initial launches, and relaunches whose parent
        # already popped (strictly earlier arrival, hence earlier run).
        ready: list[tuple[tuple[int, int], int]] = []
        blocked: dict[int, int] = {}  # parent flat -> child flat (same run)
        member_set = set(members.tolist())
        for flat in members.tolist():
            if (
                flat != int(offsets_starts[client_of[flat]])
                and flat - 1 in member_set
            ):
                blocked[flat - 1] = flat
                continue
            ready.append(
                (_heap_key(flat, offsets_starts, client_of, init_rank, pos), flat)
            )
        heapq.heapify(ready)
        p = s
        while ready:
            _, flat = heapq.heappop(ready)
            pos[flat] = p
            p += 1
            child = blocked.pop(flat, None)
            if child is not None:
                heapq.heappush(
                    ready,
                    (
                        _heap_key(
                            child, offsets_starts, client_of, init_rank, pos
                        ),
                        child,
                    ),
                )
        if p != e:  # pragma: no cover - defensive: malformed chain
            raise ConfigurationError(
                "event tie run did not drain; arrival times are not "
                "nondecreasing within a client"
            )
    result = np.empty(n_events, dtype=np.int64)
    result[pos] = np.arange(n_events)
    return result
