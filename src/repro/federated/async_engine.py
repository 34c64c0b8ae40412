"""Fleet-scale event-driven federation engine (sync / semi-sync / async).

The paper deploys BoFL "on each FL client locally" (§1); this module
provides the serving-scale federation layer that composition implies.
Where :class:`repro.federated.server.FederatedServer` drives a handful of
live :class:`FederatedClient` objects synchronously — every round blocks
on the slowest participant — this engine composes *thousands* of clients
on a simulated clock, in any of three aggregation disciplines:

``sync``
    Classic synchronous FedAvg: every selected client must report before
    the round closes, so round latency is the fleet's straggler tail.
``semisync``
    Over-selection with a straggler cutoff (Bonawitz et al.): the server
    selects ``ceil(target x over_selection)`` clients and closes the
    round as soon as ``target`` reports arrive; later arrivals are cut.
``async``
    FedBuff-style buffered asynchronous aggregation: clients train and
    report continuously, the server folds every ``buffer_size`` arrivals
    into a new model version, and each contribution is discounted by its
    *staleness* (how many versions the global model advanced while the
    client trained).  Contributions staler than ``max_staleness`` are
    dropped entirely.

Clients are **trace-driven**: each one's local rounds come from a
:class:`~repro.core.records.CampaignResult` produced by the ordinary
campaign runner (per-client BoFL/baseline pacing, per-round energy,
elapsed time and deadline-miss flags).  Traces are gathered — and may be
sharded across the :class:`~repro.sim.executor.CampaignExecutor` process
pool — *before* composition starts; the composition itself is a pure,
serial, deterministic function of the traces and the fleet seed.  That
split is what makes serial and sharded fleet runs byte-identical: see
:mod:`repro.sim.fleet` for the orchestration layer.

The engine reuses the existing federation abstractions:
:class:`~repro.federated.selection.ClientSelector` picks participants,
:class:`~repro.federated.transport.LinkModel` prices every upload, and an
:class:`~repro.federated.aggregation.Aggregator` combines the per-report
progress probes under staleness-discounted weights (the probe is a
one-element update vector carrying the client's local-round progress, so
the aggregation path is exercised for real and its output lands on the
trace).

This module holds the engine's configuration, its result types and the
knob, selection and emission helpers; the composition itself runs on the
flattened trace columns of :mod:`repro.federated.vector_engine`, held
byte-identical to the per-event test oracle in
``tests/federated/reference_fleet.py``.

Fault composition: ``client_dropout`` windows are folded into the client
*trace* (the chaos engine idles the device to the deadline and the report
never leaves the client), while ``transport_stall`` windows act here, at
the fleet layer, by delaying the report's arrival — the two compose on
the same client without either subsystem knowing about the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from collections.abc import Iterator, Sequence
from typing import Any, Optional, Union

import numpy as np

from repro.core.records import RoundRecord
from repro.errors import ConfigurationError
from repro.federated.aggregation import Aggregator, FedAvg
from repro.federated.choices import FLEET_DETAILS, FLEET_MODES
from repro.federated.hierarchy import HierarchySpec
from repro.federated.selection import ClientSelector
from repro.federated.transport import LinkModel
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.obs import runtime as obs
from repro.servertune.controllers import (
    RoundFeedback,
    ServerController,
    ServerKnobs,
)
from repro.types import Seconds, require_whole


def staleness_weight(staleness: int, exponent: float) -> float:
    """The FedBuff-style staleness discount ``(1 + s)^-exponent``.

    ``staleness`` is how many global model versions were committed between
    the client starting its local round and its report arriving; fresher
    reports keep more of their weight.  ``exponent=0`` disables the
    discount (every report weighs its sample count).
    """
    if staleness < 0:
        raise ConfigurationError(f"staleness must be >= 0, got {staleness}")
    if exponent < 0:
        raise ConfigurationError(f"staleness exponent must be >= 0, got {exponent}")
    return float((1.0 + staleness) ** (-exponent))


@dataclass
class FleetClient:
    """One fleet participant: identity, trace, and transport state.

    Built by :func:`repro.sim.fleet.build_fleet_clients`; ``records`` is
    filled from the client's campaign trace before composition starts.
    """

    client_id: str
    index: int
    device: str
    task: str
    controller: str
    trace_seed: int
    n_samples: int
    model_size_mbit: float
    #: Engine-level transport faults: upload of a local round inside a
    #: window is delayed by ``magnitude x deadline`` (the stall eats that
    #: fraction of the round's reporting budget).
    stall_windows: tuple[FaultSpec, ...] = ()
    #: Seed for this client's private upload-time stream.
    upload_seed: int = 0
    #: Trace-level chaos (e.g. dropout windows) folded into the client's
    #: campaign key by the fleet layer; the engine itself never reads it.
    fault_schedule: Optional[FaultSchedule] = None
    #: The client's local-round trace (one entry per local round); the
    #: engine reads it and never modifies it.
    records: list[RoundRecord] = field(default_factory=list)


@dataclass
class FleetReport:
    """One client report as the server saw it (ServerRound-equivalent)."""

    client_id: str
    local_round: int
    #: Simulated time the report reached the server.
    arrival: Seconds
    train_elapsed: Seconds
    upload: Seconds
    energy: float
    #: The client missed its training deadline (report not aggregatable).
    missed: bool
    #: Global model versions committed while the client trained.
    staleness: int = 0
    #: Aggregation weight (samples x staleness discount); 0 when dropped.
    weight: float = 0.0
    #: How the server disposed of the report: "buffered" (aggregated),
    #: "straggler" (deadline missed), "cutoff" (semi-sync late arrival),
    #: or "stale" (async staleness bound exceeded).
    status: str = "buffered"


#: Report dispositions; :attr:`ReportColumns.status` holds their indices.
REPORT_STATUSES: tuple[str, ...] = ("buffered", "straggler", "cutoff", "stale")
BUFFERED, STRAGGLER, CUTOFF, STALE = range(len(REPORT_STATUSES))
_STATUS_CODES = {status: code for code, status in enumerate(REPORT_STATUSES)}

#: :class:`FleetReport` field names, in declaration (and ``to_dict``) order.
_REPORT_FIELDS = tuple(f.name for f in fields(FleetReport))

#: The columns of :class:`ReportColumns` and their dtypes, in field order.
_COLUMNS: tuple[tuple[str, str], ...] = (
    ("client", "int64"),
    ("local_round", "int64"),
    ("arrival", "float64"),
    ("train_elapsed", "float64"),
    ("upload", "float64"),
    ("energy", "float64"),
    ("missed", "bool"),
    ("staleness", "int64"),
    ("weight", "float64"),
    ("status", "int8"),
)


@dataclass(frozen=True, eq=False)
class ReportColumns:
    """One round's client reports as parallel column arrays, in report order.

    Each column is one :class:`FleetReport` field; ``client`` holds
    positions into ``client_ids`` (one list shared by every round of a
    composition) and ``status`` holds indices into
    :data:`REPORT_STATUSES`.  A report costs a few dozen bytes here
    against a few hundred as an object; :meth:`reports` builds the objects
    when a caller asks for them, with the same Python types and float bits.
    """

    client_ids: Sequence[str]
    client: np.ndarray
    local_round: np.ndarray
    arrival: np.ndarray
    train_elapsed: np.ndarray
    upload: np.ndarray
    energy: np.ndarray
    missed: np.ndarray
    staleness: np.ndarray
    weight: np.ndarray
    status: np.ndarray

    def __len__(self) -> int:
        return int(self.client.shape[0])

    @classmethod
    def from_reports(cls, reports: Sequence[FleetReport]) -> "ReportColumns":
        rows: list[tuple[Any, ...]] = []
        for i, r in enumerate(reports):
            if r.status not in _STATUS_CODES:
                raise ConfigurationError(f"unknown report status {r.status!r}")
            rows.append((
                i, r.local_round, r.arrival, r.train_elapsed, r.upload,
                r.energy, r.missed, r.staleness, r.weight,
                _STATUS_CODES[r.status],
            ))
        values = list(zip(*rows)) if rows else [()] * len(_COLUMNS)
        return cls(
            [r.client_id for r in reports],
            *(np.array(v, dtype=dtype) for v, (_, dtype) in zip(values, _COLUMNS)),
        )

    def take(self, index: Union[slice, np.ndarray]) -> "ReportColumns":
        """The reports at ``index`` (a slice gives views, a mask copies)."""
        return ReportColumns(
            self.client_ids, *(getattr(self, name)[index] for name, _ in _COLUMNS)
        )

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Each report as a tuple of :class:`FleetReport` fields (Python types)."""
        ids = self.client_ids
        for row in zip(*(getattr(self, name).tolist() for name, _ in _COLUMNS)):
            yield (ids[row[0]], *row[1:9], REPORT_STATUSES[row[9]])

    def reports(self) -> list[FleetReport]:
        return [FleetReport(*row) for row in self.rows()]


@dataclass(frozen=True)
class RoundStats:
    """Aggregate round counters for ``detail="stats"`` compositions.

    Holds exactly what the :class:`FleetResult` scorecard and the per-round
    observability events consume, so a stats-mode round carries O(1) memory
    instead of one column entry per report.  ``energy`` is summed
    in reports-mode order (dropped reports first, then arrivals), keeping
    the float total bit-identical to the reports-mode accumulation.
    """

    n_participants: int
    n_reports: int
    n_dropped: int
    n_buffered: int
    #: Reports by terminal status (``n_straggler`` counts deadline misses
    #: and dropout idles, matching ``status == "straggler"``).
    n_straggler: int
    n_cutoff: int
    n_stale: int
    energy: float
    #: Sum of buffered reports' staleness (exact: integers).
    staleness_sum: int

    def to_dict(self) -> dict[str, object]:
        return {
            "n_participants": self.n_participants,
            "n_reports": self.n_reports,
            "n_dropped": self.n_dropped,
            "n_buffered": self.n_buffered,
            "n_straggler": self.n_straggler,
            "n_cutoff": self.n_cutoff,
            "n_stale": self.n_stale,
            "energy": self.energy,
            "staleness_sum": self.staleness_sum,
        }


class FleetRound:
    """Server-side record of one aggregation (ServerRound-equivalent).

    A round holds its client reports in one of three shapes, and every
    accessor below reads whichever is present:

    * ``columns`` — the engine's ``detail="reports"`` rounds keep a
      :class:`ReportColumns`; :attr:`reports` builds fresh
      :class:`FleetReport` objects on each read, and no accessor does.
    * a report list — a round built from :class:`FleetReport` objects
      (``reports=[...]``, or appended to :attr:`reports` afterwards, as
      the per-event test oracle does) keeps that list and returns it as
      is; the accessors convert it to columns on each read.
    * ``stats`` — ``detail="stats"`` rounds keep aggregate counters
      (:class:`RoundStats`) and no reports.

    Two rounds are equal when their fields and their :attr:`reports` are.
    """

    def __init__(
        self,
        round_index: int,
        started_at: Seconds,
        completed_at: Seconds,
        participants: Optional[list[str]] = None,
        reports: Optional[list[FleetReport]] = None,
        dropped: Optional[list[str]] = None,
        aggregated: bool = False,
        model_version: int = 0,
        model_probe: Optional[float] = None,
        stats: Optional[RoundStats] = None,
        columns: Optional[ReportColumns] = None,
    ) -> None:
        if reports and columns is not None:
            raise ConfigurationError("a round takes reports or columns, not both")
        self.round_index = round_index
        self.started_at = started_at
        self.completed_at = completed_at
        self.participants: list[str] = [] if participants is None else participants
        #: Clients whose trace round was a chaos dropout (no report sent).
        self.dropped: list[str] = [] if dropped is None else dropped
        self.aggregated = aggregated
        #: Global model version after this aggregation committed.
        self.model_version = model_version
        #: The staleness-weighted aggregation probe (see module docstring).
        self.model_probe = model_probe
        #: Aggregate counters when composed with ``detail="stats"``.
        self.stats = stats
        #: The reports as columns (the engine's ``detail="reports"`` shape).
        self.columns = columns
        self._report_list: list[FleetReport] = [] if reports is None else reports

    @property
    def reports(self) -> list[FleetReport]:
        """The round's reports as objects (built afresh from ``columns``)."""
        if self.columns is not None:
            return self.columns.reports()
        return self._report_list

    def _report_columns(self) -> ReportColumns:
        if self.columns is not None:
            return self.columns
        return ReportColumns.from_reports(self._report_list)

    _FIELDS = (
        "round_index",
        "started_at",
        "completed_at",
        "participants",
        "reports",
        "dropped",
        "aggregated",
        "model_version",
        "model_probe",
        "stats",
    )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self._FIELDS
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"FleetRound({body})"

    @property
    def latency(self) -> Seconds:
        return self.completed_at - self.started_at

    @property
    def total_energy(self) -> float:
        if self.stats is not None:
            return self.stats.energy
        # Left to right over Python floats, as the reports were summed.
        energies: list[float] = self._report_columns().energy.tolist()
        return sum(energies)

    @property
    def stragglers(self) -> list[str]:
        """Clients whose reports could not be aggregated this round."""
        columns = self._report_columns()
        ids = columns.client_ids
        lost = columns.client[columns.status != BUFFERED]
        return [ids[c] for c in lost.tolist()]

    @property
    def buffered(self) -> list[FleetReport]:
        columns = self._report_columns()
        return columns.take(columns.status == BUFFERED).reports()

    def participant_count(self) -> int:
        if self.stats is not None:
            return self.stats.n_participants
        return len(self.participants)

    def report_count(self) -> int:
        if self.stats is not None:
            return self.stats.n_reports
        return len(self._report_columns())

    def dropped_count(self) -> int:
        if self.stats is not None:
            return self.stats.n_dropped
        return len(self.dropped)

    def buffered_count(self) -> int:
        return self.status_count("buffered")

    def straggler_count(self) -> int:
        """Reports that could not be aggregated (any non-buffered status)."""
        if self.stats is not None:
            return (
                self.stats.n_straggler + self.stats.n_cutoff + self.stats.n_stale
            )
        return self.report_count() - self.buffered_count()

    def status_count(self, status: str) -> int:
        if self.stats is not None:
            return {
                "buffered": self.stats.n_buffered,
                "straggler": self.stats.n_straggler,
                "cutoff": self.stats.n_cutoff,
                "stale": self.stats.n_stale,
            }.get(status, 0)
        code = _STATUS_CODES.get(status)
        if code is None:
            return 0
        return int(np.count_nonzero(self._report_columns().status == code))

    def staleness_total(self) -> int:
        """Summed staleness over buffered reports (exact integer)."""
        if self.stats is not None:
            return self.stats.staleness_sum
        columns = self._report_columns()
        return int(columns.staleness[columns.status == BUFFERED].sum())

    def to_dict(self) -> dict[str, object]:
        result: dict[str, object] = {
            "round_index": self.round_index,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "participants": list(self.participants),
            "dropped": list(self.dropped),
            "aggregated": self.aggregated,
            "model_version": self.model_version,
            "model_probe": self.model_probe,
            "reports": [
                dict(zip(_REPORT_FIELDS, row))
                for row in self._report_columns().rows()
            ],
        }
        if self.stats is not None:
            result["stats"] = self.stats.to_dict()
        return result


@dataclass
class FleetResult:
    """The outcome of one fleet composition run."""

    mode: str
    n_clients: int
    rounds: list[FleetRound] = field(default_factory=list)
    #: Energy of trace rounds the composition consumed but no aggregation
    #: window claimed (e.g. a final partial async buffer never flushed).
    unclaimed_energy: float = 0.0

    @property
    def aggregations(self) -> int:
        return sum(1 for r in self.rounds if r.aggregated)

    @property
    def total_energy(self) -> float:
        return sum(r.total_energy for r in self.rounds) + self.unclaimed_energy

    @property
    def makespan(self) -> Seconds:
        """Simulated time from fleet start to the last aggregation."""
        if not self.rounds:
            return 0.0
        return max(r.completed_at for r in self.rounds)

    @property
    def mean_round_latency(self) -> Seconds:
        if not self.rounds:
            return 0.0
        return sum(r.latency for r in self.rounds) / len(self.rounds)

    @property
    def straggler_reports(self) -> int:
        return sum(rnd.status_count("straggler") for rnd in self.rounds)

    @property
    def cutoff_reports(self) -> int:
        return sum(rnd.status_count("cutoff") for rnd in self.rounds)

    @property
    def staleness_drops(self) -> int:
        return sum(rnd.status_count("stale") for rnd in self.rounds)

    @property
    def dropout_rounds(self) -> int:
        return sum(rnd.dropped_count() for rnd in self.rounds)

    @property
    def mean_staleness(self) -> float:
        count = sum(rnd.buffered_count() for rnd in self.rounds)
        if count == 0:
            return 0.0
        return sum(rnd.staleness_total() for rnd in self.rounds) / count

    def to_dict(self) -> dict[str, object]:
        return {
            "mode": self.mode,
            "n_clients": self.n_clients,
            "unclaimed_energy": self.unclaimed_energy,
            "rounds": [r.to_dict() for r in self.rounds],
        }


class AsyncFederationEngine:
    """Composes client traces into fleet rounds on a simulated clock.

    Parameters
    ----------
    clients:
        Fleet participants with their ``records`` traces already filled.
    mode:
        One of :data:`FLEET_MODES`.
    link:
        The wireless link pricing every upload (per-client private RNG
        streams keep draws independent of composition order).
    selector:
        Participant choice for ``sync``/``semisync`` rounds; ignored by
        ``async`` (every client streams continuously).
    aggregator:
        Combines the per-report progress probes under the computed
        weights each time the server commits a model version.
    target_reports:
        ``semisync`` only: commit as soon as this many aggregatable
        reports arrived (the over-selected remainder is cut).
    buffer_size, staleness_exponent, max_staleness:
        ``async`` only: the FedBuff buffer length, the staleness-discount
        exponent, and the optional hard staleness bound.
    controller:
        Optional :class:`~repro.servertune.controllers.ServerController`
        adapting the global knobs between aggregations: ``participation``
        rescales the selector's cohort (sync/semisync), ``deadline_scale``
        caps how long past the nominal deadline budget the server waits
        before cutting a round (sync/semisync), ``buffer_scale`` rescales
        the FedBuff commit threshold (async), and ``halt`` ends the run.
        ``None`` (and a controller pinned at the default knobs) composes
        byte-identically to the pre-controller engine.
    detail:
        ``"reports"`` keeps every client report, as :class:`ReportColumns`
        (``round.reports`` builds the :class:`FleetReport` objects on read);
        ``"stats"`` keeps per-round :class:`RoundStats` aggregates only
        (O(rounds) memory — the 100k–1M-client shape).  Both compose the
        same scorecard and the same obs trace, in every mode.
    hierarchy:
        Optional :class:`~repro.federated.hierarchy.HierarchySpec`: commit
        through edge aggregators (O(edges) server work) instead of the
        flat fold.  A *different discipline*, not an optimization.

    The engine never modifies ``clients`` or their traces, so one
    prepared population can be composed any number of times.
    """

    def __init__(
        self,
        clients: Sequence[FleetClient],
        *,
        mode: str = "sync",
        link: Optional[LinkModel] = None,
        selector: Optional[ClientSelector] = None,
        aggregator: Optional[Aggregator] = None,
        target_reports: Optional[int] = None,
        buffer_size: int = 16,
        staleness_exponent: float = 0.5,
        max_staleness: Optional[int] = None,
        controller: Optional[ServerController] = None,
        detail: str = "reports",
        hierarchy: Optional[HierarchySpec] = None,
    ) -> None:
        if not clients:
            raise ConfigurationError("a fleet needs at least one client")
        if mode not in FLEET_MODES:
            raise ConfigurationError(
                f"unknown fleet mode {mode!r}; available: {', '.join(FLEET_MODES)}"
            )
        buffer_size = require_whole("buffer_size", buffer_size, minimum=1)
        if staleness_exponent < 0:
            raise ConfigurationError(
                f"staleness_exponent must be >= 0, got {staleness_exponent}"
            )
        if max_staleness is not None:
            max_staleness = require_whole("max_staleness", max_staleness)
        if target_reports is not None:
            target_reports = require_whole("target_reports", target_reports, minimum=1)
        if detail not in FLEET_DETAILS:
            raise ConfigurationError(
                f"unknown detail {detail!r}; available: {', '.join(FLEET_DETAILS)}"
            )
        self.clients = list(clients)
        self.mode = mode
        self.link = link if link is not None else LinkModel()
        self.selector = selector
        self.aggregator = aggregator if aggregator is not None else FedAvg()
        self.target_reports = target_reports
        self.buffer_size = buffer_size
        self.staleness_exponent = staleness_exponent
        self.max_staleness = max_staleness
        self.controller = controller
        self.detail = detail
        self.hierarchy = hierarchy
        #: The selector's configured cohort size before any participation
        #: knob touched it; the knob always rescales from this base, never
        #: from its own previous output (no compounding).
        self._base_selection: Optional[int] = getattr(
            selector, "participants_per_round", None
        )
        if len({c.client_id for c in self.clients}) != len(self.clients):
            raise ConfigurationError("fleet client ids must be unique")

    # -- shared mechanics ----------------------------------------------------

    def _emit_round(self, round_record: FleetRound) -> None:
        if not obs.enabled():
            return
        obs.emit(
            "fleet.round",
            t=round_record.completed_at,
            round=round_record.round_index,
            mode=self.mode,
            participants=round_record.participant_count(),
            buffered=round_record.buffered_count(),
            stragglers=round_record.straggler_count(),
            dropped=round_record.dropped_count(),
            latency=round_record.latency,
            energy=round_record.total_energy,
            version=round_record.model_version,
        )
        obs.count("fleet.rounds")

    # -- composition ---------------------------------------------------------

    def run(self, rounds: int) -> FleetResult:
        """Compose ``rounds`` worth of fleet activity and return the result.

        ``sync``/``semisync``: ``rounds`` global rounds are driven through
        the selector.  ``async``: every client streams its full trace (at
        most ``rounds`` local rounds each) and the server commits a
        version per full buffer — the number of aggregations follows from
        fleet size and buffer length.
        """
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        if obs.enabled():
            obs.emit(
                "fleet.start",
                mode=self.mode,
                clients=len(self.clients),
                rounds=rounds,
                buffer_size=self.buffer_size if self.mode == "async" else None,
                staleness_exponent=(
                    self.staleness_exponent if self.mode == "async" else None
                ),
            )
        from repro.federated.vector_engine import run_vectorized

        result = run_vectorized(self, rounds)
        if obs.enabled():
            obs.emit(
                "fleet.end",
                t=result.makespan,
                mode=self.mode,
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

    def _round_knobs(self, round_index: int) -> Optional[ServerKnobs]:
        """The controller's knobs for this round (None when uncontrolled)."""
        if self.controller is None:
            return None
        knobs = self.controller.knobs_for(round_index)
        if obs.enabled():
            obs.emit(
                "servertune.knobs",
                round=round_index,
                controller=self.controller.name,
                deadline_scale=knobs.deadline_scale,
                participation=knobs.participation,
                buffer_scale=knobs.buffer_scale,
                halt=knobs.halt,
            )
            obs.count("servertune.rounds")
        return knobs

    def _feed_controller(self, round_record: FleetRound, committed: float) -> float:
        """Report one committed round back to the server controller.

        ``committed`` is the energy of the rounds committed before this
        one, summed left to right from 0 as :attr:`FleetResult.total_energy`
        sums it (the unclaimed energy it adds is 0.0 until composition
        ends); returns it with this round's energy added.
        """
        if self.controller is None:
            return committed
        energy = round_record.total_energy
        committed += energy
        self.controller.observe(
            RoundFeedback(
                round_index=round_record.round_index,
                participants=round_record.participant_count(),
                buffered=round_record.buffered_count(),
                stragglers=round_record.straggler_count(),
                energy=energy,
                latency=round_record.latency,
                total_energy=committed,
                makespan=round_record.completed_at,
            )
        )
        return committed

    def _emit_halt(self, round_index: int, t: Seconds) -> None:
        if self.controller is None:
            return
        obs.emit(
            "servertune.halt",
            t=t,
            round=round_index,
            controller=self.controller.name,
        )
        obs.count("servertune.halts")

    def _select_ids(
        self, round_index: int, knobs: Optional[ServerKnobs] = None
    ) -> list[str]:
        ids = [c.client_id for c in self.clients]
        if self.selector is None:
            return ids
        if knobs is not None and self._base_selection is not None:
            self.selector.participants_per_round = max(  # type: ignore[attr-defined]
                1, round(self._base_selection * knobs.participation)
            )
        return list(self.selector.select(ids, round_index))
