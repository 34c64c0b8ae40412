"""Vectorized fleet composition over structured-array event queues.

The composition behind
:meth:`~repro.federated.async_engine.AsyncFederationEngine.run`, built on
the flattened trace columns of :mod:`repro.federated.eventqueue`.  Its
semantics are those of a per-event loop — one launch, one upload draw and
one heap entry per local round — which is kept as a test oracle
(``tests/federated/reference_fleet.py``); the differential suite holds
results and obs traces byte-identical to it.  It has two paths:

* **sync / semisync rounds** (:func:`_run_rounds`): one launch is a
  fancy-index gather, one round's arrival sort is a single ``lexsort`` on
  ``(arrival, selection order)``, and the cutoff/patience/status logic is
  boolean masks.  A round's reports are gathered into
  :class:`~repro.federated.async_engine.ReportColumns` from the arrays
  already held.  Per-report Python work survives only where it is
  observable — emitting ``fleet.enqueue`` events, feeding an
  energy-aware selector — and is skipped with observability off and no
  observing selector.
* **async FedBuff windows** (:func:`_run_async`): every client streams
  its trace back to back, so arrival times are per-client chained sums
  and the drain order is
  :func:`~repro.federated.eventqueue.resolve_pop_order`, whatever the
  knobs.  The knobs and the staleness bound decide only where each
  aggregation window closes, and the drain resolves that one window at
  a time.  It reads the controller's knobs after the previous commit and
  finds the window's ``threshold``-th aggregatable report by
  ``searchsorted`` on a prefix count, searching on past every report
  staler than ``max_staleness``.  A report's staleness is the window's
  version minus the commits at or before its parent's pop, one
  ``searchsorted`` on the windows closed so far.  The live reports'
  columns are built once in pop order; each round holds a slice of
  them.  A halt sums the in-flight energy in the per-event heap's list
  order, which :func:`_in_flight_energy` replays only when a halt fires.

Both paths commit through :func:`_commit_arrays` and emit through
:func:`_emit_enqueue_scalar`.

Float discipline, everywhere: sums the per-event semantics accumulate
left-to-right stay left-to-right (``sum(column.tolist())``, never
``np.sum``'s pairwise reduction), arrival times keep the
``(start + elapsed) + upload`` association, and staleness discounts are
computed once per staleness value with the exact scalar ``**`` of
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
        return _run_async(engine, rounds)
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
    arrays = build_trace_arrays(engine.clients, engine.link, rounds_cap=rounds)
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
    committed = 0.0
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
        committed = engine._feed_controller(round_record, committed)
        now = round_record.completed_at
    return result


# -- async: FedBuff windows -------------------------------------------------


def _in_flight_energy(
    arrays: FleetTraceArrays, at: np.ndarray, halt_pos: int
) -> float:
    """Energy left on the FedBuff heap once a halt pops event ``halt_pos``.

    Summed in the heap's list order, as the per-event drain sums it: the
    ``(at, push counter)`` pushes and pops are replayed up to the halt,
    so only a halting run pays for this.
    """
    at_list = at.tolist()
    energy = arrays.energy.tolist()
    last = set((arrays.offsets[1:][arrays.lengths > 0] - 1).tolist())
    offsets = arrays.offsets.tolist()
    heap: list[tuple[float, int, int]] = []
    counter = 0
    for start, end in zip(offsets[:-1], offsets[1:]):
        if start < end:
            heapq.heappush(heap, (at_list[start], counter, start))
            counter += 1
    for _ in range(halt_pos):
        flat = heapq.heappop(heap)[2]
        if flat not in last:
            heapq.heappush(heap, (at_list[flat + 1], counter, flat + 1))
            counter += 1
    heapq.heappop(heap)  # the halted event itself
    return sum(energy[entry[2]] for entry in heap)


def _run_async(engine: AsyncFederationEngine, rounds: int) -> FleetResult:
    """The FedBuff drain, resolved one aggregation window at a time."""
    arrays = build_trace_arrays(engine.clients, engine.link, rounds_cap=rounds)
    n = arrays.n_clients
    ids = arrays.client_ids
    result = FleetResult(mode="async", n_clients=n)
    at = async_arrival_times(arrays)
    pop = resolve_pop_order(at, arrays.offsets)
    # Every live report's columns in pop order; each round holds a slice.
    live = ~arrays.dropped[pop]
    live_flat = pop[live]
    dropped_flat = pop[~live]
    client_of = np.repeat(np.arange(n, dtype=np.int64), arrays.lengths)
    client = client_of[live_flat]
    local_round = live_flat - arrays.offsets[client]
    arrival = at[live_flat]
    energy = arrays.energy[live_flat]
    missed = arrays.missed[live_flat]
    staleness = np.zeros(live_flat.shape[0], dtype=np.int64)
    weight = np.zeros(live_flat.shape[0])
    status = np.where(missed, STRAGGLER, BUFFERED).astype(np.int8)
    # Live reports popped up to each event.  A report's model version is
    # the number of windows closed before its parent's count (0 for a
    # first launch); a dropout joins the window open after its count.
    live_seen = np.cumsum(live)
    seen_by_flat = np.empty_like(live_seen)
    seen_by_flat[pop] = live_seen
    parent_seen = np.where(local_round > 0, seen_by_flat[live_flat - 1], 0)
    dropped_seen = live_seen[~live]
    dropped_client = client_of[dropped_flat]
    del client_of, live_seen, seen_by_flat
    aggregatable = np.cumsum(~missed)
    n_live = live_flat.shape[0]
    n_windows = int(aggregatable[-1]) if n_live else 0
    closes = np.zeros(n_windows, dtype=np.int64)  # each window's last report
    discount = np.zeros(n_windows + 1)  # staleness s -> its weight discount
    progress_div = np.maximum(arrays.lengths, 1)
    index_arr = _client_indices(engine)
    stats_mode = engine.detail == "stats"
    emitting = obs.enabled()
    if not stats_mode:
        columns = ReportColumns(
            client_ids=ids,
            client=client,
            local_round=local_round,
            arrival=arrival,
            train_elapsed=arrays.elapsed[live_flat],
            upload=arrays.upload[live_flat],
            energy=energy,
            missed=missed,
            staleness=staleness,
            weight=weight,
            status=status,
        )
    lo = 0  # the open window's first live report
    d_lo = 0  # ... and first dropout
    committed = 0.0
    flushed_at: Seconds = 0.0
    knobs = engine._round_knobs(0)
    while True:
        w = len(result.rounds)  # also the model version: each window commits
        if knobs is not None and knobs.halt and lo + d_lo < arrays.n_events:
            # The halt fires at the window's first pop, with nothing
            # buffered: the dropouts popped so far, that event and all
            # still in flight burned energy no window claims.
            halted = int(pop[lo + d_lo])
            engine._emit_halt(w, float(at[halted]))
            pending = sum(arrays.energy[dropped_flat[:d_lo]].tolist())
            pending += float(arrays.energy[halted])
            pending += _in_flight_energy(arrays, at, lo + d_lo)
            result.unclaimed_energy = float(pending)
            return result
        threshold = engine.buffer_size
        if knobs is not None and knobs.buffer_scale != 1.0:
            threshold = max(1, round(threshold * knobs.buffer_scale))
        discount[w] = staleness_weight(w, engine.staleness_exponent)
        # The close is the threshold-th aggregatable report; every stale
        # one found on the way pushes it one aggregatable report further.
        need = threshold + (int(aggregatable[lo - 1]) if lo else 0)
        hi = lo
        while True:
            close = int(np.searchsorted(aggregatable, need))
            span = slice(hi, min(close + 1, n_live))
            hi = span.stop
            staleness[span] = w - np.searchsorted(closes[:w], parent_seen[span])
            if engine.max_staleness is None:
                break
            stale = (staleness[span] > engine.max_staleness) & ~missed[span]
            n_stale = int(np.count_nonzero(stale))
            status[span][stale] = STALE
            if n_stale == 0 or close >= n_live:
                break
            need += n_stale
        span = slice(lo, hi)
        if emitting:
            for c, local, t, stale_by, code in zip(
                client[span].tolist(),
                local_round[span].tolist(),
                arrival[span].tolist(),
                staleness[span].tolist(),
                status[span].tolist(),
            ):
                _emit_enqueue_scalar(
                    t, w, ids[c], local, stale_by, REPORT_STATUSES[code]
                )
        if close >= n_live:
            break  # a trailing partial buffer is never committed
        d_hi = int(np.searchsorted(dropped_seen, close, side="right"))
        buffered = lo + np.flatnonzero(status[span] == BUFFERED)
        contributors = client[buffered]
        weight[buffered] = (
            arrays.n_samples[contributors] * discount[staleness[buffered]]
        )
        participants = sorted({ids[c] for c in client[span].tolist()})
        round_record = FleetRound(
            round_index=w,
            started_at=flushed_at,
            completed_at=float(arrival[close]),
            participants=participants,
        )
        if stats_mode:
            counts = np.bincount(status[span], minlength=len(REPORT_STATUSES))
            round_record.stats = RoundStats(
                n_participants=len(participants),
                n_reports=hi - lo,
                n_dropped=d_hi - d_lo,
                n_buffered=int(counts[BUFFERED]),
                n_straggler=int(counts[STRAGGLER]),
                n_cutoff=0,
                n_stale=int(counts[STALE]),
                energy=float(sum(energy[span].tolist())),
                staleness_sum=int(staleness[buffered].sum()),
            )
        else:
            round_record.dropped = [
                ids[c] for c in dropped_client[d_lo:d_hi].tolist()
            ]
            round_record.columns = columns.take(span)
        _commit_arrays(
            engine,
            round_record,
            w,
            progresses=(local_round[buffered] + 1) / progress_div[contributors],
            weights=weight[buffered],
            client_index_values=index_arr[contributors],
        )
        result.rounds.append(round_record)
        engine._emit_round(round_record)
        committed = engine._feed_controller(round_record, committed)
        knobs = engine._round_knobs(len(result.rounds))
        closes[w] = close
        flushed_at = round_record.completed_at
        lo, d_lo = hi, d_hi
    # The trailing buffer and every dropout burned energy no window claims.
    pending = sum(arrays.energy[dropped_flat].tolist())
    result.unclaimed_energy = float(pending + sum(energy[lo:].tolist()))
    return result
