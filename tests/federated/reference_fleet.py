"""The per-event fleet loop: the test oracle for fleet composition.

This loop composes a fleet one event at a time: one Python object per
launched local round, upload times drawn launch by launch from each
client's private stream through
:meth:`~repro.federated.transport.LinkModel.transfer_time`, an
``(at, counter)`` heap for the FedBuff drain, and the array-path
``aggregator.aggregate`` commit.  None of that is shared with
:mod:`repro.federated.vector_engine`, the code it checks, which is what
makes byte-for-byte agreement meaningful.

It does reuse the engine's configuration and the helpers that decide
*what* is composed rather than how: ``_round_knobs``, ``_select_ids``,
``_emit_round``, ``_feed_controller`` and ``_emit_halt``.

:func:`reference_run` has the signature of
:meth:`AsyncFederationEngine.run`; :func:`reference_compose_fleet` runs
:func:`repro.sim.fleet.compose_fleet` with the engine's ``run`` swapped
for it, so both sides share the spec-to-engine construction.  Neither
mutates its input clients.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional
from unittest import mock

import numpy as np

from repro.core.records import RoundRecord
from repro.faults.schedule import FaultSpec
from repro.federated.async_engine import (
    AsyncFederationEngine,
    FleetClient,
    FleetReport,
    FleetResult,
    FleetRound,
    staleness_weight,
)
from repro.federated.hierarchy import combine_hierarchical
from repro.obs import runtime as obs
from repro.servertune.controllers import ServerKnobs
from repro.sim.fleet import FleetSpec, compose_fleet
from repro.types import Seconds


@dataclass(frozen=True)
class _Arrival:
    """One report in flight: ordering key is (time, client index)."""

    at: Seconds
    order: int
    client: FleetClient
    local_round: int
    record: RoundRecord
    upload: Seconds
    version_started: int
    dropped: bool


def _stalled_in(client: FleetClient, local_round: int) -> Optional[FaultSpec]:
    """The transport-stall window covering ``local_round``, if any."""
    for window in client.stall_windows:
        if window.active_in(local_round):
            return window
    return None


class _ReferenceLoop:
    """One composition's state: cursors, upload streams, composable traces."""

    def __init__(
        self, engine: AsyncFederationEngine, rounds_cap: Optional[int]
    ) -> None:
        self.engine = engine
        self.by_id = {c.client_id: c for c in engine.clients}
        #: The composable trace per client: async streams at most
        #: ``rounds`` local rounds each, so sync and async consume
        #: identical work.  Slices, never the clients' own lists.
        self.records = {
            c.client_id: c.records[:rounds_cap] for c in engine.clients
        }
        self.upload_rngs = {
            c.client_id: np.random.default_rng(c.upload_seed)
            for c in engine.clients
        }
        #: Next unconsumed local round per client.
        self.cursor = {c.client_id: 0 for c in engine.clients}

    # -- shared mechanics ----------------------------------------------------

    def _next_record(self, client: FleetClient) -> Optional[RoundRecord]:
        records = self.records[client.client_id]
        cursor = self.cursor[client.client_id]
        if cursor >= len(records):
            return None
        self.cursor[client.client_id] = cursor + 1
        return records[cursor]

    def _upload_time(
        self, client: FleetClient, local_round: int, record: RoundRecord
    ) -> Seconds:
        """Transfer time for one report, including transport-stall delay."""
        rng = self.upload_rngs[client.client_id]
        upload = self.engine.link.transfer_time(client.model_size_mbit, rng)
        stall = _stalled_in(client, local_round)
        if stall is not None:
            upload += stall.magnitude * record.deadline
        return upload

    def _launch(
        self, client: FleetClient, start: Seconds, order: int, version: int
    ) -> Optional[_Arrival]:
        """Start the client's next local round; None when its trace is dry."""
        local_round = self.cursor[client.client_id]
        record = self._next_record(client)
        if record is None:
            return None
        dropped = record.phase == "dropped"
        # A dropout round consumes the deadline (the board idles) but no
        # report is ever uploaded; the "arrival" is just the client
        # becoming available again.
        upload = (
            0.0 if dropped else self._upload_time(client, local_round, record)
        )
        return _Arrival(
            at=start + record.elapsed + upload,
            order=order,
            client=client,
            local_round=local_round,
            record=record,
            upload=upload,
            version_started=version,
            dropped=dropped,
        )

    def _observe_selector(self, report: FleetReport) -> None:
        observe = getattr(self.engine.selector, "observe", None)
        if observe is not None:
            observe(report.client_id, report.energy)

    def _commit(self, round_record: FleetRound, version: int) -> int:
        """Aggregate the round's buffered reports; returns the new version."""
        engine = self.engine
        buffered = round_record.buffered
        if not buffered:
            round_record.model_version = version
            return version
        progresses: list[float] = []
        weights: list[float] = []
        edges: list[int] = []
        for report in buffered:
            client = self.by_id[report.client_id]
            trace_rounds = max(len(self.records[report.client_id]), 1)
            progresses.append((report.local_round + 1) / trace_rounds)
            weights.append(report.weight)
            if engine.hierarchy is not None:
                edges.append(engine.hierarchy.edge_of(client.index))
        if engine.hierarchy is not None:
            round_record.model_probe = combine_hierarchical(
                engine.aggregator,
                engine.hierarchy,
                progresses,
                weights,
                edges,
                t=round_record.completed_at,
                round_index=round_record.round_index,
                version=version + 1,
            )
        else:
            updates = [[np.asarray([p], dtype=float)] for p in progresses]
            combined = engine.aggregator.aggregate(updates, weights)
            round_record.model_probe = float(combined[0][0])
        round_record.aggregated = True
        version += 1
        round_record.model_version = version
        if obs.enabled():
            obs.emit(
                "fleet.aggregate",
                t=round_record.completed_at,
                round=round_record.round_index,
                contributors=len(buffered),
                weight_total=float(sum(weights)),
                probe=round_record.model_probe,
                version=version,
            )
            obs.count("fleet.aggregations")
        return version

    @staticmethod
    def _emit_enqueue(report: FleetReport, round_index: int) -> None:
        if not obs.enabled():
            return
        obs.emit(
            "fleet.enqueue",
            t=report.arrival,
            round=round_index,
            client=report.client_id,
            local_round=report.local_round,
            staleness=report.staleness,
            status=report.status,
        )
        obs.count("fleet.enqueues")
        if report.status == "stale":
            obs.emit(
                "fleet.staleness_drop",
                t=report.arrival,
                round=round_index,
                client=report.client_id,
                staleness=report.staleness,
            )
            obs.count("fleet.staleness_drops")

    # -- sync / semisync -----------------------------------------------------

    def run_rounds(self, rounds: int) -> FleetResult:
        """Synchronous and semi-synchronous composition."""
        engine = self.engine
        result = FleetResult(mode=engine.mode, n_clients=len(engine.clients))
        version = 0
        committed = 0.0
        now: Seconds = 0.0
        for round_index in range(rounds):
            knobs = engine._round_knobs(round_index)
            if knobs is not None and knobs.halt:
                engine._emit_halt(round_index, now)
                break
            selected = engine._select_ids(round_index, knobs)
            round_record = FleetRound(
                round_index=round_index,
                started_at=now,
                completed_at=now,
                participants=list(selected),
            )
            arrivals: list[_Arrival] = []
            for order, client_id in enumerate(selected):
                client = self.by_id[client_id]
                arrival = self._launch(client, now, order, version)
                if arrival is None:
                    continue  # trace exhausted: nothing left to contribute
                if arrival.dropped:
                    round_record.dropped.append(client_id)
                    # The dropout's idle energy still belongs to the round.
                    round_record.reports.append(
                        FleetReport(
                            client_id=client_id,
                            local_round=arrival.local_round,
                            arrival=arrival.at,
                            train_elapsed=arrival.record.elapsed,
                            upload=0.0,
                            energy=arrival.record.energy,
                            missed=True,
                            status="straggler",
                        )
                    )
                    continue
                arrivals.append(arrival)
            arrivals.sort(key=lambda a: (a.at, a.order))
            cutoff_at = self._cutoff(arrivals, knobs)
            patience_at = self._patience(now, arrivals, knobs)
            if patience_at is not None and (
                cutoff_at is None or patience_at < cutoff_at
            ):
                cutoff_at = patience_at
            for arrival in arrivals:
                missed = arrival.record.missed
                if missed:
                    status = "straggler"
                elif cutoff_at is not None and arrival.at > cutoff_at:
                    status = "cutoff"
                else:
                    status = "buffered"
                report = FleetReport(
                    client_id=arrival.client.client_id,
                    local_round=arrival.local_round,
                    arrival=arrival.at,
                    train_elapsed=arrival.record.elapsed,
                    upload=arrival.upload,
                    energy=arrival.record.energy,
                    missed=missed,
                    staleness=0,
                    weight=(
                        float(arrival.client.n_samples)
                        if status == "buffered"
                        else 0.0
                    ),
                    status=status,
                )
                round_record.reports.append(report)
                self._emit_enqueue(report, round_index)
                self._observe_selector(report)
            completed = self._round_close(round_record, arrivals, cutoff_at)
            round_record.completed_at = max(completed, now)
            version = self._commit(round_record, version)
            result.rounds.append(round_record)
            engine._emit_round(round_record)
            committed = engine._feed_controller(round_record, committed)
            now = round_record.completed_at
        return result

    def _cutoff(
        self, arrivals: list[_Arrival], knobs: Optional[ServerKnobs]
    ) -> Optional[Seconds]:
        """The semi-sync straggler cutoff time, or None (wait for all)."""
        engine = self.engine
        if engine.mode != "semisync" or engine.target_reports is None:
            return None
        target = engine.target_reports
        if knobs is not None and knobs.participation != 1.0:
            target = max(1, round(target * knobs.participation))
        aggregatable = [a for a in arrivals if not a.record.missed]
        if len(aggregatable) <= target:
            return None
        return aggregatable[target - 1].at

    @staticmethod
    def _patience(
        started_at: Seconds,
        arrivals: list[_Arrival],
        knobs: Optional[ServerKnobs],
    ) -> Optional[Seconds]:
        """The controller's straggler-patience cap on the round close."""
        if knobs is None or knobs.deadline_scale == 1.0 or not arrivals:
            return None
        budget = max(a.record.deadline for a in arrivals)
        return started_at + knobs.deadline_scale * budget

    @staticmethod
    def _round_close(
        round_record: FleetRound,
        arrivals: list[_Arrival],
        cutoff_at: Optional[Seconds],
    ) -> Seconds:
        """When the server closes the round and commits."""
        if cutoff_at is not None:
            if arrivals:
                return min(cutoff_at, max(a.at for a in arrivals))
            return cutoff_at
        if arrivals:
            return max(a.at for a in arrivals)
        drops = [r.arrival for r in round_record.reports]
        return max(drops) if drops else round_record.started_at

    # -- async ---------------------------------------------------------------

    def run_async(self) -> FleetResult:
        """FedBuff-style buffered asynchronous composition."""
        engine = self.engine
        result = FleetResult(mode="async", n_clients=len(engine.clients))
        version = 0
        committed = 0.0
        flushed_at: Seconds = 0.0
        heap: list[tuple[Seconds, int, _Arrival]] = []
        order = 0
        for client in engine.clients:
            arrival = self._launch(client, 0.0, order, version)
            if arrival is not None:
                heapq.heappush(heap, (arrival.at, arrival.order, arrival))
                order += 1
        buffer: list[FleetReport] = []
        pending_energy = 0.0
        pending_dropped: list[str] = []
        knobs = engine._round_knobs(0)
        while heap:
            _, _, arrival = heapq.heappop(heap)
            client = arrival.client
            round_index = len(result.rounds)
            if knobs is not None and knobs.halt:
                # The in-flight report and everything still on the heap
                # burned energy no window will ever claim.
                engine._emit_halt(round_index, arrival.at)
                pending_energy += arrival.record.energy
                pending_energy += sum(entry[2].record.energy for entry in heap)
                heap.clear()
                break
            flush = False
            if arrival.dropped:
                pending_dropped.append(client.client_id)
                pending_energy += arrival.record.energy
            else:
                staleness = version - arrival.version_started
                if arrival.record.missed:
                    status = "straggler"
                elif (
                    engine.max_staleness is not None
                    and staleness > engine.max_staleness
                ):
                    status = "stale"
                else:
                    status = "buffered"
                discount = staleness_weight(staleness, engine.staleness_exponent)
                report = FleetReport(
                    client_id=client.client_id,
                    local_round=arrival.local_round,
                    arrival=arrival.at,
                    train_elapsed=arrival.record.elapsed,
                    upload=arrival.upload,
                    energy=arrival.record.energy,
                    missed=arrival.record.missed,
                    staleness=staleness,
                    weight=(
                        float(client.n_samples) * discount
                        if status == "buffered"
                        else 0.0
                    ),
                    status=status,
                )
                self._emit_enqueue(report, round_index)
                buffer.append(report)
                threshold = engine.buffer_size
                if knobs is not None and knobs.buffer_scale != 1.0:
                    threshold = max(1, round(threshold * knobs.buffer_scale))
                flush = (
                    sum(1 for r in buffer if r.status == "buffered") >= threshold
                )
            if flush:
                round_record = FleetRound(
                    round_index=round_index,
                    started_at=flushed_at,
                    completed_at=arrival.at,
                    participants=sorted({r.client_id for r in buffer}),
                    reports=buffer,
                    dropped=pending_dropped,
                )
                version = self._commit(round_record, version)
                result.rounds.append(round_record)
                engine._emit_round(round_record)
                committed = engine._feed_controller(round_record, committed)
                # Knobs advance per commit, not per arrival.
                knobs = engine._round_knobs(len(result.rounds))
                flushed_at = arrival.at
                buffer = []
                pending_dropped = []
            # The client immediately starts its next local round against
            # the *current* model version.
            relaunch = self._launch(client, arrival.at, order, version)
            if relaunch is not None:
                heapq.heappush(heap, (relaunch.at, relaunch.order, relaunch))
                order += 1
        result.unclaimed_energy = pending_energy + sum(r.energy for r in buffer)
        return result


def reference_run(engine: AsyncFederationEngine, rounds: int) -> FleetResult:
    """Compose ``rounds`` of fleet activity on the per-event reference loop.

    Emits the same ``fleet.start``/``fleet.end`` framing as
    :meth:`AsyncFederationEngine.run`, so whole deterministic traces can
    be compared.
    """
    if obs.enabled():
        obs.emit(
            "fleet.start",
            mode=engine.mode,
            clients=len(engine.clients),
            rounds=rounds,
            buffer_size=engine.buffer_size if engine.mode == "async" else None,
            staleness_exponent=(
                engine.staleness_exponent if engine.mode == "async" else None
            ),
        )
    if engine.mode == "async":
        result = _ReferenceLoop(engine, rounds_cap=rounds).run_async()
    else:
        result = _ReferenceLoop(engine, rounds_cap=None).run_rounds(rounds)
    if obs.enabled():
        obs.emit(
            "fleet.end",
            t=result.makespan,
            mode=engine.mode,
            aggregations=result.aggregations,
            total_energy=result.total_energy,
            makespan=result.makespan,
            mean_latency=result.mean_round_latency,
            stragglers=result.straggler_reports,
            cutoffs=result.cutoff_reports,
            staleness_drops=result.staleness_drops,
            dropouts=result.dropout_rounds,
        )
    return result


def reference_compose_fleet(
    spec: FleetSpec, clients: list[FleetClient]
) -> FleetResult:
    """:func:`compose_fleet` with the engine's ``run`` swapped for the oracle."""
    with mock.patch.object(AsyncFederationEngine, "run", reference_run):
        return compose_fleet(spec, clients)
