"""Vectorized fleet composition over structured-array event queues.

The composition behind
:meth:`~repro.federated.async_engine.AsyncFederationEngine.run`, built on
the flattened trace columns of :mod:`repro.federated.eventqueue`.  Its
semantics are those of a per-event loop — one launch, one upload draw and
one heap entry per local round — which is kept as a test oracle
(``tests/federated/reference_fleet.py``); the differential suite holds
results and obs traces byte-identical to it:

* **sync / semisync** (:func:`_run_rounds`): one launch is a fancy-index
  gather, one round's arrival sort is a single ``lexsort`` on
  ``(arrival, selection order)``, and the cutoff/patience/status logic is
  boolean masks.  A round's reports are gathered into
  :class:`~repro.federated.async_engine.ReportColumns` from the arrays
  already held.  Per-report Python work survives only where it is
  observable — emitting ``fleet.enqueue`` events, feeding an
  energy-aware selector — and is skipped with observability off and no
  observing selector.
* **async fast drain** (:func:`_run_async_fast`): with no server
  controller and no staleness bound, the whole FedBuff drain is static —
  arrival times are per-client chained sums, the drain order is
  :func:`~repro.federated.eventqueue.resolve_pop_order`, flush positions
  are a cumulative-sum-modulo mask, and every report's staleness falls
  out of two ``cumsum`` lookups (committed versions before its pop minus
  committed versions at its parent's pop).  The live reports' columns
  are built once in pop order; each round holds a slice of them.
* **async array walk** (:func:`_run_async_walk`): an adaptive controller
  or a ``max_staleness`` bound makes flush positions sequentially
  dependent, so this path walks the drain one event at a time — over the
  precomputed columns and a plain ``(at, counter, flat)`` heap, with no
  per-launch RNG draws and no intermediate arrival objects.  It buffers
  one row tuple per report and hands the rows over as columns at each
  flush, counting buffered reports as they arrive.  Its halt
  path sums in-flight energy in raw heap-list order, which is why it
  keeps a real heap rather than :func:`resolve_pop_order`.

The walk and the fast drain commit through :func:`_commit_arrays` and
emit through :func:`_emit_enqueue_scalar`, as the round path does.

Float discipline, everywhere: sums the per-event semantics accumulate
left-to-right stay left-to-right (``sum(column.tolist())``, never
``np.sum``'s pairwise reduction), arrival times keep the
``(start + elapsed) + upload`` association, and staleness discounts are
computed once per distinct staleness with the exact scalar ``**`` of
:func:`staleness_weight`.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.federated.async_engine import (
    BUFFERED,
    CUTOFF,
    REPORT_STATUSES,
    STALE,
    STRAGGLER,
    AsyncFederationEngine,
    FleetResult,
    FleetRound,
    ReportColumns,
    ReportRow,
    RoundStats,
    staleness_weight,
)
from repro.federated.eventqueue import (
    FleetTraceArrays,
    async_arrival_times,
    build_trace_arrays,
    resolve_pop_order,
)
from repro.federated.hierarchy import aggregate_probe, combine_hierarchical
from repro.obs import runtime as obs
from repro.types import Seconds


def run_vectorized(engine: AsyncFederationEngine, rounds: int) -> FleetResult:
    """Compose ``rounds`` of fleet activity on the structured-array path."""
    if engine.mode == "async":
        if engine.controller is None and engine.max_staleness is None:
            return _run_async_fast(engine, rounds)
        return _run_async_walk(engine, rounds)
    return _run_rounds(engine, rounds)


def _client_indices(engine: AsyncFederationEngine) -> np.ndarray:
    """Each client's :attr:`FleetClient.index` (the hierarchy edge basis)."""
    return np.fromiter(
        (c.index for c in engine.clients), dtype=np.int64, count=len(engine.clients)
    )


def _commit_arrays(
    engine: AsyncFederationEngine,
    round_record: FleetRound,
    version: int,
    progresses: np.ndarray,
    weights: np.ndarray,
    client_index_values: np.ndarray,
) -> int:
    """Fold the buffered progress probes into a new model version.

    ``aggregate_probe`` replicates FedAvg's array arithmetic on scalars;
    other aggregators get the genuine array call with identically built
    inputs, so the probe is bit-identical to ``aggregator.aggregate``.
    """
    if progresses.shape[0] == 0:
        round_record.model_version = version
        return version
    progress_list = progresses.tolist()
    weight_list = weights.tolist()
    if engine.hierarchy is not None:
        edges = [engine.hierarchy.edge_of(int(i)) for i in client_index_values.tolist()]
        probe = combine_hierarchical(
            engine.aggregator,
            engine.hierarchy,
            progress_list,
            weight_list,
            edges,
            t=round_record.completed_at,
            round_index=round_record.round_index,
            version=version + 1,
        )
    else:
        probe = aggregate_probe(engine.aggregator, progress_list, weight_list)
    round_record.model_probe = probe
    round_record.aggregated = True
    version += 1
    round_record.model_version = version
    if obs.enabled():
        obs.emit(
            "fleet.aggregate",
            t=round_record.completed_at,
            round=round_record.round_index,
            contributors=len(progress_list),
            weight_total=float(sum(weight_list)),
            probe=probe,
            version=version,
        )
        obs.count("fleet.aggregations")
    return version


def _emit_enqueue_scalar(
    arrival: float,
    round_index: int,
    client_id: str,
    local_round: int,
    staleness: int,
    status: str,
) -> None:
    """``fleet.enqueue`` (and the stale-drop follow-up) from plain scalars."""
    obs.emit(
        "fleet.enqueue",
        t=arrival,
        round=round_index,
        client=client_id,
        local_round=local_round,
        staleness=staleness,
        status=status,
    )
    obs.count("fleet.enqueues")
    if status == "stale":
        obs.emit(
            "fleet.staleness_drop",
            t=arrival,
            round=round_index,
            client=client_id,
            staleness=staleness,
        )
        obs.count("fleet.staleness_drops")


# -- sync / semisync ---------------------------------------------------------


def _run_rounds(engine: AsyncFederationEngine, rounds: int) -> FleetResult:
    """Vectorized synchronous and semi-synchronous composition."""
    arrays = build_trace_arrays(
        engine.clients, engine.link, rounds_cap=rounds, shards=engine.shards
    )
    n = arrays.n_clients
    ids = arrays.client_ids
    offsets = arrays.offsets
    lengths = arrays.lengths
    # Sync progress divides by the client's *full* trace length; only
    # async caps each client's stream at ``rounds``.
    full_div = np.maximum(arrays.full_lengths, 1)
    index_arr = _client_indices(engine)
    n_samples = arrays.n_samples
    cursor = np.zeros(n, dtype=np.int64)
    id_to_pos = (
        {cid: i for i, cid in enumerate(ids)} if engine.selector is not None else {}
    )
    observe = getattr(engine.selector, "observe", None)
    stats_mode = engine.detail == "stats"
    result = FleetResult(mode=engine.mode, n_clients=n)
    version = 0
    now: Seconds = 0.0
    for round_index in range(rounds):
        knobs = engine._round_knobs(round_index)
        if knobs is not None and knobs.halt:
            engine._emit_halt(round_index, now)
            break
        if engine.selector is None:
            sel_idx = np.arange(n, dtype=np.int64)
            # Everyone participates: every round shares the composition's
            # one id list (read-only, as ReportColumns shares it).
            selected: Optional[list[str]] = None if stats_mode else ids
            n_selected = n
        else:
            chosen = engine._select_ids(round_index, knobs)
            sel_idx = np.fromiter(
                (id_to_pos[cid] for cid in chosen),
                dtype=np.int64,
                count=len(chosen),
            )
            selected = list(chosen)
            n_selected = len(chosen)
        has = cursor[sel_idx] < lengths[sel_idx]
        launch_idx = sel_idx[has]
        launch_pos = np.flatnonzero(has)  # selection order, for ties
        local = cursor[launch_idx].copy()
        flat = offsets[launch_idx] + local
        cursor[launch_idx] += 1
        dropped_mask = arrays.dropped[flat]
        at_all = (now + arrays.elapsed[flat]) + arrays.upload[flat]
        d_idx = launch_idx[dropped_mask]
        d_flat = flat[dropped_mask]
        d_at = at_all[dropped_mask]
        d_local = local[dropped_mask]
        live = ~dropped_mask
        order = np.lexsort((launch_pos[live], at_all[live]))
        l_idx = launch_idx[live][order]
        l_flat = flat[live][order]
        l_at = at_all[live][order]
        l_local = local[live][order]
        l_missed = arrays.missed[l_flat]
        cutoff_at: Optional[float] = None
        if engine.mode == "semisync" and engine.target_reports is not None:
            target = engine.target_reports
            if knobs is not None and knobs.participation != 1.0:
                target = max(1, round(target * knobs.participation))
            agg_at = l_at[~l_missed]
            if agg_at.shape[0] > target:
                cutoff_at = float(agg_at[target - 1])
        if knobs is not None and knobs.deadline_scale != 1.0 and l_at.shape[0]:
            budget = float(np.max(arrays.deadline[l_flat]))
            patience = now + knobs.deadline_scale * budget
            if cutoff_at is None or patience < cutoff_at:
                cutoff_at = float(patience)
        if cutoff_at is None:
            cut_mask = np.zeros(l_at.shape[0], dtype=bool)
        else:
            cut_mask = (~l_missed) & (l_at > cutoff_at)
        buffered_mask = (~l_missed) & (~cut_mask)
        if cutoff_at is not None:
            completed = (
                min(cutoff_at, float(np.max(l_at))) if l_at.shape[0] else cutoff_at
            )
        elif l_at.shape[0]:
            completed = float(np.max(l_at))
        else:
            completed = float(np.max(d_at)) if d_at.shape[0] else now
        round_record = FleetRound(
            round_index=round_index,
            started_at=now,
            completed_at=float(max(completed, now)),
            participants=[] if selected is None else selected,
        )
        l_status = np.where(l_missed, STRAGGLER, np.where(cut_mask, CUTOFF, BUFFERED))
        if not stats_mode:
            # Dropped reports first, then arrivals in arrival order.
            n_dropped = d_idx.shape[0]
            flat_all = np.concatenate([d_flat, l_flat])
            round_record.dropped = [ids[c] for c in d_idx.tolist()]
            round_record.columns = ReportColumns(
                client_ids=ids,
                client=np.concatenate([d_idx, l_idx]),
                local_round=np.concatenate([d_local, l_local]),
                arrival=np.concatenate([d_at, l_at]),
                train_elapsed=arrays.elapsed[flat_all],
                upload=np.concatenate([np.zeros(n_dropped), arrays.upload[l_flat]]),
                energy=arrays.energy[flat_all],
                missed=np.concatenate([np.ones(n_dropped, dtype=bool), l_missed]),
                staleness=np.zeros(flat_all.shape[0], dtype=np.int64),
                weight=np.concatenate(
                    [np.zeros(n_dropped), np.where(buffered_mask, n_samples[l_idx], 0.0)]
                ),
                status=np.concatenate(
                    [np.full(n_dropped, STRAGGLER), l_status]
                ).astype(np.int8),
            )
        emitting = obs.enabled()
        if emitting or observe is not None:
            for pos, arrival, local_round, energy, code in zip(
                l_idx.tolist(),
                l_at.tolist(),
                l_local.tolist(),
                arrays.energy[l_flat].tolist(),
                l_status.tolist(),
            ):
                cid = ids[pos]
                if emitting:
                    _emit_enqueue_scalar(
                        arrival, round_index, cid, local_round, 0,
                        REPORT_STATUSES[code],
                    )
                if observe is not None:
                    observe(cid, energy)
        if stats_mode:
            energy_total = float(
                sum(
                    arrays.energy[d_flat].tolist()
                    + arrays.energy[l_flat].tolist()
                )
            )
            round_record.stats = RoundStats(
                n_participants=n_selected,
                n_reports=int(d_flat.shape[0] + l_flat.shape[0]),
                n_dropped=int(d_flat.shape[0]),
                n_buffered=int(np.count_nonzero(buffered_mask)),
                n_straggler=int(
                    d_flat.shape[0] + np.count_nonzero(l_missed)
                ),
                n_cutoff=int(np.count_nonzero(cut_mask)),
                n_stale=0,
                energy=energy_total,
                staleness_sum=0,
            )
        version = _commit_arrays(
            engine,
            round_record,
            version,
            progresses=(l_local[buffered_mask] + 1) / full_div[l_idx[buffered_mask]],
            weights=n_samples[l_idx[buffered_mask]],
            client_index_values=index_arr[l_idx[buffered_mask]],
        )
        result.rounds.append(round_record)
        engine._emit_round(round_record)
        engine._feed_controller(round_record, result)
        now = round_record.completed_at
    return result


# -- async: static fast drain ------------------------------------------------


def _staleness_discounts(
    staleness: np.ndarray, exponent: float
) -> np.ndarray:
    """Per-event discount via the exact scalar power, one per distinct value."""
    if staleness.shape[0] == 0:
        return np.zeros(0)
    uniq, inverse = np.unique(staleness, return_inverse=True)
    table = np.fromiter(
        (staleness_weight(int(s), exponent) for s in uniq.tolist()),
        dtype=float,
        count=uniq.shape[0],
    )
    return table[inverse]


def _run_async_fast(engine: AsyncFederationEngine, rounds: int) -> FleetResult:
    """FedBuff drain with static flush schedule (no controller/staleness bound)."""
    arrays = build_trace_arrays(
        engine.clients, engine.link, rounds_cap=rounds, shards=engine.shards
    )
    n = arrays.n_clients
    result = FleetResult(mode="async", n_clients=n)
    n_events = arrays.n_events
    if n_events == 0:
        result.unclaimed_energy = 0.0
        return result
    ids = arrays.client_ids
    offsets = arrays.offsets
    lengths = arrays.lengths
    at = async_arrival_times(arrays)
    pop = resolve_pop_order(at, offsets)
    client_of = np.repeat(np.arange(n, dtype=np.int64), lengths)
    starts = np.repeat(offsets[:-1], lengths)
    local_of = np.arange(n_events, dtype=np.int64) - starts
    p_client = client_of[pop]
    p_local = local_of[pop]
    p_at = at[pop]
    p_dropped = arrays.dropped[pop]
    p_missed = arrays.missed[pop]
    live = ~p_dropped
    buffered_flag = live & ~p_missed
    cum = np.cumsum(buffered_flag)
    threshold = engine.buffer_size
    flush_flag = buffered_flag & (cum % threshold == 0)
    flushes = np.cumsum(flush_flag)
    version_before = flushes - flush_flag
    pos_of = np.empty(n_events, dtype=np.int64)
    pos_of[pop] = np.arange(n_events)
    parent_pos = pos_of[np.maximum(pop - 1, 0)]
    version_started = np.where(p_local > 0, flushes[parent_pos], 0)
    staleness = version_before - version_started
    weights = np.zeros(n_events)
    weights[buffered_flag] = arrays.n_samples[p_client[buffered_flag]] * (
        _staleness_discounts(
            staleness[buffered_flag], engine.staleness_exponent
        )
    )
    progress = (p_local + 1) / np.maximum(lengths, 1)[p_client]
    index_arr = _client_indices(engine)
    stats_mode = engine.detail == "stats"
    emitting = obs.enabled()
    flush_positions = np.flatnonzero(flush_flag)
    version = 0
    window_start = 0  # first pop position of the open window
    flushed_at: Seconds = 0.0

    if not stats_mode:
        # Every live report's columns in pop order, built once; each
        # window's round holds a slice (views) of them.
        live_flat = pop[live]
        live_missed = p_missed[live]
        columns = ReportColumns(
            client_ids=ids,
            client=p_client[live],
            local_round=p_local[live],
            arrival=p_at[live],
            train_elapsed=arrays.elapsed[live_flat],
            upload=arrays.upload[live_flat],
            energy=arrays.energy[live_flat],
            missed=live_missed,
            staleness=staleness[live],
            weight=weights[live],
            status=np.where(live_missed, STRAGGLER, BUFFERED).astype(np.int8),
        )
        # Live reports before each pop position: a window's column slice.
        live_rank = np.concatenate(([0], np.cumsum(live)))

    def _emit_window(lo: int, hi: int, round_index: int) -> None:
        """``fleet.enqueue`` for the live reports in pop span [lo, hi)."""
        keep = live[lo:hi]
        for c, local_round, arrival, stale, missed in zip(
            p_client[lo:hi][keep].tolist(),
            p_local[lo:hi][keep].tolist(),
            p_at[lo:hi][keep].tolist(),
            staleness[lo:hi][keep].tolist(),
            p_missed[lo:hi][keep].tolist(),
        ):
            _emit_enqueue_scalar(
                arrival, round_index, ids[c], local_round, stale,
                "straggler" if missed else "buffered",
            )

    for w, j in enumerate(flush_positions.tolist()):
        hi = j + 1
        span = slice(window_start, hi)
        live_span = live[span]
        buf_span = buffered_flag[span]
        window_clients = p_client[span][live_span]
        participants = sorted({ids[int(c)] for c in np.unique(window_clients)})
        round_record = FleetRound(
            round_index=w,
            started_at=float(flushed_at),
            completed_at=float(p_at[j]),
            participants=participants,
        )
        if emitting:
            _emit_window(window_start, hi, w)
        if stats_mode:
            pop_span = pop[span]
            energy_total = float(
                sum(arrays.energy[pop_span[live_span]].tolist())
            )
            round_record.stats = RoundStats(
                n_participants=len(participants),
                n_reports=int(np.count_nonzero(live_span)),
                n_dropped=int(np.count_nonzero(~live_span)),
                n_buffered=int(np.count_nonzero(buf_span)),
                n_straggler=int(
                    np.count_nonzero(live_span) - np.count_nonzero(buf_span)
                ),
                n_cutoff=0,
                n_stale=0,
                energy=energy_total,
                staleness_sum=int(staleness[span][buf_span].sum()),
            )
        else:
            round_record.dropped = [
                ids[c] for c in p_client[span][~live_span].tolist()
            ]
            round_record.columns = columns.take(
                slice(int(live_rank[window_start]), int(live_rank[hi]))
            )
        sel = np.flatnonzero(buf_span) + window_start
        version = _commit_arrays(
            engine,
            round_record,
            version,
            progresses=progress[sel],
            weights=weights[sel],
            client_index_values=index_arr[p_client[sel]],
        )
        result.rounds.append(round_record)
        engine._emit_round(round_record)
        engine._feed_controller(round_record, result)
        flushed_at = float(p_at[j])
        window_start = hi
    # Trailing partial buffer: processed (and enqueue-emitted) but never
    # flushed; its energy joins the dropouts' as unclaimed.
    if window_start < n_events and emitting:
        _emit_window(window_start, n_events, len(result.rounds))
    pending = sum(arrays.energy[pop[~live]].tolist())
    trailing_live = pop[window_start:][live[window_start:]]
    trailing = sum(arrays.energy[trailing_live].tolist())
    result.unclaimed_energy = float(pending + trailing)
    return result


# -- async: sequential array walk -------------------------------------------


def _run_async_walk(engine: AsyncFederationEngine, rounds: int) -> FleetResult:
    """The FedBuff drain walked event by event (controller-aware).

    Flush positions depend on adaptive knobs (buffer rescale, halt) or a
    staleness bound, so this path pops events one at a time from an
    ``(at, push counter)`` heap — the per-event semantics' keys and
    push/pop sequence, hence the same internal heap layout the halt
    path's energy sweep depends on.
    """
    arrays = build_trace_arrays(
        engine.clients, engine.link, rounds_cap=rounds, shards=engine.shards
    )
    n = arrays.n_clients
    ids = arrays.client_ids
    offsets = arrays.offsets
    progress_div = np.maximum(arrays.lengths, 1)
    index_arr = _client_indices(engine)
    at = async_arrival_times(arrays)
    emitting = obs.enabled()
    result = FleetResult(mode="async", n_clients=n)
    # Heap entries: (arrival, push counter, flat event, version at launch).
    heap: list[tuple[float, int, int, int]] = []
    counter = 0
    for i in range(n):
        start = int(offsets[i])
        if start == int(offsets[i + 1]):
            continue
        heapq.heappush(heap, (float(at[start]), counter, start, 0))
        counter += 1
    # The open buffer: one row per report, laid out as ReportColumns.
    buffer: list[ReportRow] = []
    n_buffered = 0
    pending_energy = 0.0
    pending_dropped: list[str] = []
    version = 0
    flushed_at: Seconds = 0.0
    knobs = engine._round_knobs(0)
    while heap:
        arrival_at, _, flat, version_started = heapq.heappop(heap)
        client_pos = int(np.searchsorted(offsets, flat, side="right")) - 1
        cid = ids[client_pos]
        round_index = len(result.rounds)
        if knobs is not None and knobs.halt:
            engine._emit_halt(round_index, arrival_at)
            pending_energy += float(arrays.energy[flat])
            pending_energy += sum(
                float(arrays.energy[entry[2]]) for entry in heap
            )
            heap.clear()
            break
        flush = False
        if arrays.dropped[flat]:
            pending_dropped.append(cid)
            pending_energy += float(arrays.energy[flat])
        else:
            staleness = version - version_started
            missed = bool(arrays.missed[flat])
            if missed:
                status = STRAGGLER
            elif (
                engine.max_staleness is not None
                and staleness > engine.max_staleness
            ):
                status = STALE
            else:
                status = BUFFERED
            local_round = int(flat - offsets[client_pos])
            arrival = float(arrival_at)
            if emitting:
                _emit_enqueue_scalar(
                    arrival, round_index, cid, local_round, staleness,
                    REPORT_STATUSES[status],
                )
            weight = 0.0
            if status == BUFFERED:
                n_buffered += 1
                weight = float(arrays.n_samples[client_pos]) * staleness_weight(
                    staleness, engine.staleness_exponent
                )
            buffer.append((
                client_pos,
                local_round,
                arrival,
                float(arrays.elapsed[flat]),
                float(arrays.upload[flat]),
                float(arrays.energy[flat]),
                missed,
                staleness,
                weight,
                status,
            ))
            threshold = engine.buffer_size
            if knobs is not None and knobs.buffer_scale != 1.0:
                threshold = max(1, round(threshold * knobs.buffer_scale))
            flush = n_buffered >= threshold
        if flush:
            columns = ReportColumns.from_rows(ids, buffer)
            round_record = FleetRound(
                round_index=round_index,
                started_at=flushed_at,
                completed_at=float(arrival_at),
                participants=sorted({ids[row[0]] for row in buffer}),
                dropped=pending_dropped,
                columns=columns,
            )
            kept = columns.status == BUFFERED
            positions = columns.client[kept]
            version = _commit_arrays(
                engine,
                round_record,
                version,
                progresses=(columns.local_round[kept] + 1) / progress_div[positions],
                weights=columns.weight[kept],
                client_index_values=index_arr[positions],
            )
            result.rounds.append(round_record)
            engine._emit_round(round_record)
            engine._feed_controller(round_record, result)
            knobs = engine._round_knobs(len(result.rounds))
            flushed_at = float(arrival_at)
            buffer = []
            n_buffered = 0
            pending_dropped = []
        next_flat = flat + 1
        if next_flat < int(offsets[client_pos + 1]):
            heapq.heappush(
                heap, (float(at[next_flat]), counter, next_flat, version)
            )
            counter += 1
    # row[5] is the report's energy.
    result.unclaimed_energy = pending_energy + sum(row[5] for row in buffer)
    return result
