"""Unit tests for the fleet-scale federation engine."""

import pytest

from repro.errors import ConfigurationError
from repro.core.records import RoundRecord
from repro.faults.schedule import FaultSpec
from repro.federated.aggregation import TrimmedMeanAggregator
from repro.federated.async_engine import (
    FLEET_MODES,
    AsyncFederationEngine,
    FleetClient,
    FleetResult,
    FleetRound,
    staleness_weight,
)
from repro.federated.selection import RandomSelector
from repro.federated.transport import LinkModel
from repro.servertune.controllers import ServerTuneSpec, make_server_controller
from tests.federated.reference_fleet import reference_run

#: A deterministic link: transfer time is purely size / bandwidth.
FIXED_LINK = dict(bandwidth_mbps=10.0, variability=0.0, latency=0.0)


def make_record(round_index, elapsed, *, energy=10.0, missed=False, phase="exploit"):
    return RoundRecord(
        round_index=round_index,
        phase=phase,
        deadline=elapsed * 2,
        jobs=4,
        elapsed=elapsed,
        energy=energy,
        missed=missed,
    )


def make_client(index, *, elapsed=5.0, rounds=4, stalls=(), **record_kwargs):
    return FleetClient(
        client_id=f"client-{index:04d}",
        index=index,
        device="agx",
        task="vit",
        controller="bofl",
        trace_seed=index,
        n_samples=100,
        model_size_mbit=10.0,
        stall_windows=tuple(stalls),
        upload_seed=index,
        records=[make_record(r, elapsed, **record_kwargs) for r in range(rounds)],
    )


def make_fleet(n, *, spread=0.0, **kwargs):
    """``spread`` staggers per-client elapsed so arrival order is knowable."""
    return [make_client(i, elapsed=5.0 + spread * i, **kwargs) for i in range(n)]


class TestStalenessWeight:
    def test_fresh_report_keeps_full_weight(self):
        assert staleness_weight(0, 0.5) == 1.0

    def test_discount_decreases_with_staleness(self):
        weights = [staleness_weight(s, 0.5) for s in range(5)]
        assert weights == sorted(weights, reverse=True)
        assert weights[3] == pytest.approx(0.5)  # (1+3)^-0.5

    def test_zero_exponent_disables_discount(self):
        assert all(staleness_weight(s, 0.0) == 1.0 for s in range(10))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            staleness_weight(-1, 0.5)
        with pytest.raises(ConfigurationError):
            staleness_weight(0, -0.5)


class TestEngineValidation:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ConfigurationError, match="at least one client"):
            AsyncFederationEngine([])

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="unknown fleet mode"):
            AsyncFederationEngine(make_fleet(2), mode="firehose")

    def test_rejects_duplicate_client_ids(self):
        clients = [make_client(0), make_client(0)]
        with pytest.raises(ConfigurationError, match="unique"):
            AsyncFederationEngine(clients)

    def test_rejects_bad_knobs(self):
        clients = make_fleet(2)
        with pytest.raises(ConfigurationError):
            AsyncFederationEngine(clients, buffer_size=0)
        with pytest.raises(ConfigurationError):
            AsyncFederationEngine(clients, staleness_exponent=-0.1)
        with pytest.raises(ConfigurationError):
            AsyncFederationEngine(clients, max_staleness=-1)
        with pytest.raises(ConfigurationError):
            AsyncFederationEngine(clients, target_reports=0)
        with pytest.raises(ConfigurationError):
            AsyncFederationEngine(clients).run(0)
        assert set(FLEET_MODES) == {"sync", "semisync", "async"}

    @pytest.mark.parametrize("knob", ["buffer_size", "max_staleness", "target_reports"])
    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), True, "3"])
    def test_whole_number_knobs(self, knob, bad):
        """A fractional buffer used to flush every 5th report without a
        staleness bound and every 3rd with one; NaN bounded nothing."""
        with pytest.raises(ConfigurationError, match=f"{knob} must be a whole"):
            AsyncFederationEngine(make_fleet(2), **{knob: bad})
        engine = AsyncFederationEngine(make_fleet(2), **{knob: 3.0})
        assert type(getattr(engine, knob)) is int

    def test_thread_sharded_compose_is_gone(self):
        """The thread-sharded upload fill was slower than the serial one."""
        import inspect

        from repro.cli import build_parser
        from repro.federated.eventqueue import build_trace_arrays
        from repro.obs.metrics import COUNTER_NAMES
        from repro.sim.fleet import compose_fleet, run_fleet

        for function in (build_trace_arrays, AsyncFederationEngine, compose_fleet, run_fleet):
            assert "shards" not in inspect.signature(function).parameters
        assert "fleet.compose_shards" not in COUNTER_NAMES
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "run", "--compose-shards", "2"])


class TestSyncMode:
    def test_round_latency_is_the_straggler_tail(self):
        clients = make_fleet(4, spread=1.0, rounds=2)
        engine = AsyncFederationEngine(clients, link=LinkModel(**FIXED_LINK))
        result = engine.run(2)
        assert len(result.rounds) == 2
        # Slowest client: elapsed 8.0 + upload 1.0 -> the round's latency.
        assert result.rounds[0].latency == pytest.approx(9.0)
        assert result.rounds[0].participants == [c.client_id for c in clients]
        assert all(r.aggregated for r in result.rounds)
        assert result.aggregations == 2

    def test_all_energy_is_claimed(self):
        clients = make_fleet(3, rounds=2)
        result = AsyncFederationEngine(
            clients, link=LinkModel(**FIXED_LINK)
        ).run(2)
        assert result.total_energy == pytest.approx(3 * 2 * 10.0)
        assert result.unclaimed_energy == 0.0

    def test_missed_deadline_becomes_straggler_with_zero_weight(self):
        clients = [make_client(0), make_client(1, missed=True)]
        result = AsyncFederationEngine(
            clients, link=LinkModel(**FIXED_LINK)
        ).run(1)
        (rnd,) = result.rounds
        assert rnd.stragglers == ["client-0001"]
        straggler = next(r for r in rnd.reports if r.client_id == "client-0001")
        assert straggler.status == "straggler"
        assert straggler.weight == 0.0
        # Its energy still counts against the fleet.
        assert rnd.total_energy == pytest.approx(20.0)
        assert result.straggler_reports == 1

    def test_all_clients_straggle_still_closes_and_skips_commit(self):
        clients = make_fleet(3, missed=True)
        result = AsyncFederationEngine(
            clients, link=LinkModel(**FIXED_LINK)
        ).run(1)
        (rnd,) = result.rounds
        assert rnd.stragglers == [c.client_id for c in clients]
        assert not rnd.aggregated
        assert rnd.model_probe is None
        assert rnd.completed_at >= rnd.started_at
        assert result.aggregations == 0

    def test_dropout_round_has_no_upload_but_keeps_energy(self):
        clients = [make_client(0), make_client(1, phase="dropped")]
        result = AsyncFederationEngine(
            clients, link=LinkModel(**FIXED_LINK)
        ).run(1)
        (rnd,) = result.rounds
        assert rnd.dropped == ["client-0001"]
        dropped = next(r for r in rnd.reports if r.client_id == "client-0001")
        assert dropped.upload == 0.0
        assert dropped.energy == 10.0
        assert result.dropout_rounds == 1

    def test_transport_stall_delays_arrival(self):
        stall = FaultSpec(kind="transport_stall", start_round=0, rounds=1, magnitude=0.5)
        baseline = AsyncFederationEngine(
            [make_client(0)], link=LinkModel(**FIXED_LINK)
        ).run(1)
        stalled = AsyncFederationEngine(
            [make_client(0, stalls=[stall])], link=LinkModel(**FIXED_LINK)
        ).run(1)
        # magnitude x deadline = 0.5 x 10.0 = 5 s extra on the wire.
        delta = stalled.rounds[0].latency - baseline.rounds[0].latency
        assert delta == pytest.approx(5.0)

    def test_selector_narrows_participation(self):
        clients = make_fleet(6, rounds=3)
        engine = AsyncFederationEngine(
            clients,
            link=LinkModel(**FIXED_LINK),
            selector=RandomSelector(2, seed=0),
        )
        result = engine.run(3)
        for rnd in result.rounds:
            assert len(rnd.participants) == 2

    def test_pluggable_aggregator_is_exercised(self):
        clients = make_fleet(5)
        result = AsyncFederationEngine(
            clients,
            link=LinkModel(**FIXED_LINK),
            aggregator=TrimmedMeanAggregator(trim=1),
        ).run(1)
        assert result.rounds[0].aggregated
        assert 0.0 < result.rounds[0].model_probe <= 1.0


class TestSemiSyncMode:
    def test_cutoff_closes_at_target_th_arrival(self):
        clients = make_fleet(5, spread=2.0, rounds=1)
        engine = AsyncFederationEngine(
            clients,
            mode="semisync",
            link=LinkModel(**FIXED_LINK),
            target_reports=3,
        )
        result = engine.run(1)
        (rnd,) = result.rounds
        # 3rd fastest client: elapsed 9.0 + upload 1.0.
        assert rnd.completed_at == pytest.approx(10.0)
        assert len(rnd.buffered) == 3
        assert result.cutoff_reports == 2
        cut = [r for r in rnd.reports if r.status == "cutoff"]
        assert all(r.weight == 0.0 for r in cut)
        # Cut reports' energy was still burned by the fleet.
        assert rnd.total_energy == pytest.approx(50.0)

    def test_no_cutoff_when_target_not_exceeded(self):
        clients = make_fleet(3, spread=2.0, rounds=1)
        result = AsyncFederationEngine(
            clients,
            mode="semisync",
            link=LinkModel(**FIXED_LINK),
            target_reports=3,
        ).run(1)
        assert result.cutoff_reports == 0
        assert len(result.rounds[0].buffered) == 3


class TestAsyncMode:
    def test_buffer_flush_commits_versions(self):
        clients = make_fleet(4, rounds=4)
        engine = AsyncFederationEngine(
            clients,
            mode="async",
            link=LinkModel(**FIXED_LINK),
            buffer_size=4,
        )
        result = engine.run(4)
        # 16 aggregatable reports / buffer of 4 = 4 commits.
        assert result.aggregations == 4
        assert result.rounds[-1].model_version == 4
        assert result.unclaimed_energy == 0.0

    def test_trailing_partial_buffer_energy_is_unclaimed_not_lost(self):
        clients = make_fleet(3, rounds=2)
        result = AsyncFederationEngine(
            clients,
            mode="async",
            link=LinkModel(**FIXED_LINK),
            buffer_size=4,
        ).run(2)
        # 6 reports -> one flush of 4, two stranded in the buffer.
        assert result.aggregations == 1
        assert result.unclaimed_energy == pytest.approx(2 * 10.0)
        assert result.total_energy == pytest.approx(6 * 10.0)

    def test_energy_parity_with_sync_at_full_participation(self):
        sync = AsyncFederationEngine(
            make_fleet(4, spread=1.0), link=LinkModel(**FIXED_LINK)
        ).run(4)
        buffered = AsyncFederationEngine(
            make_fleet(4, spread=1.0),
            mode="async",
            link=LinkModel(**FIXED_LINK),
            buffer_size=4,
        ).run(4)
        assert buffered.total_energy == pytest.approx(sync.total_energy)

    def test_async_latency_beats_sync_on_heterogeneous_fleet(self):
        sync = AsyncFederationEngine(
            make_fleet(6, spread=5.0), link=LinkModel(**FIXED_LINK)
        ).run(4)
        buffered = AsyncFederationEngine(
            make_fleet(6, spread=5.0),
            mode="async",
            link=LinkModel(**FIXED_LINK),
            buffer_size=3,
        ).run(4)
        assert buffered.mean_round_latency < sync.mean_round_latency

    def test_staleness_accumulates_and_discounts_weight(self):
        # One fast client races ahead while a slow one trains once; by the
        # time the slow report lands several versions have committed.
        fast = make_client(0, elapsed=1.0, rounds=30)
        slow = make_client(1, elapsed=20.0, rounds=1)
        result = AsyncFederationEngine(
            [fast, slow],
            mode="async",
            link=LinkModel(**FIXED_LINK),
            buffer_size=2,
            staleness_exponent=0.5,
        ).run(30)
        slow_reports = [
            r
            for rnd in result.rounds
            for r in rnd.reports
            if r.client_id == "client-0001"
        ]
        assert slow_reports, "slow client's report never landed in a flush"
        report = slow_reports[0]
        assert report.staleness > 0
        expected = 100 * staleness_weight(report.staleness, 0.5)
        assert report.weight == pytest.approx(expected)
        assert result.mean_staleness > 0

    def test_max_staleness_drops_reports(self):
        fast = make_client(0, elapsed=1.0, rounds=30)
        slow = make_client(1, elapsed=20.0, rounds=1)
        result = AsyncFederationEngine(
            [fast, slow],
            mode="async",
            link=LinkModel(**FIXED_LINK),
            buffer_size=2,
            max_staleness=0,
        ).run(30)
        assert result.staleness_drops >= 1
        stale = [
            r
            for rnd in result.rounds
            for r in rnd.reports
            if r.status == "stale"
        ]
        assert all(r.weight == 0.0 for r in stale)

    def test_composition_is_deterministic(self):
        def compose():
            return AsyncFederationEngine(
                make_fleet(5, spread=1.5),
                mode="async",
                link=LinkModel(),  # variability on: private per-client RNGs
                buffer_size=3,
            ).run(3)

        assert compose().to_dict() == compose().to_dict()


class TestControllerFeedback:
    """The controller's running ``total_energy`` is the result's, bit for
    bit, and each commit sums one round's energy, not every round's."""

    @staticmethod
    def recorded(name):
        controller = make_server_controller(ServerTuneSpec(name, patience=2))
        seen = []
        observe = controller.observe
        controller.observe = lambda feedback: (seen.append(feedback), observe(feedback))
        return controller, seen

    MODES = {
        "sync": lambda: dict(mode="sync", selector=RandomSelector(6, seed=0)),
        "semisync": lambda: dict(
            mode="semisync", selector=RandomSelector(6, seed=0), target_reports=4
        ),
        "async": lambda: dict(mode="async", buffer_size=3),
    }

    @pytest.mark.parametrize("name", ["fedgpo", "fedtune"])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_total_energy_matches_the_result_at_each_commit(self, mode, name):
        clients = [
            make_client(i, elapsed=5.0 + 0.7 * i, energy=10.0 / (i + 3), rounds=6)
            for i in range(9)
        ]
        controller, seen = self.recorded(name)
        result = AsyncFederationEngine(
            clients, link=LinkModel(), controller=controller, **self.MODES[mode]()
        ).run(6)
        assert len(seen) == len(result.rounds) > 1
        for k, feedback in enumerate(seen):
            prefix = FleetResult(mode, len(clients), rounds=result.rounds[: k + 1])
            assert feedback.total_energy.hex() == prefix.total_energy.hex()

    def test_each_commit_reads_one_round_energy(self, monkeypatch):
        reads = []
        energy = FleetRound.total_energy
        monkeypatch.setattr(
            FleetRound,
            "total_energy",
            property(lambda rnd: (reads.append(rnd), energy.fget(rnd))[1]),
        )
        controller, _ = self.recorded("fedgpo")
        result = AsyncFederationEngine(
            make_fleet(10, spread=0.5, rounds=12),
            mode="async",
            link=LinkModel(**FIXED_LINK),
            buffer_size=2,
            controller=controller,
        ).run(12)
        assert len(result.rounds) >= 40
        assert len(reads) == len(result.rounds)


class TestInputsUntouched:
    """Composition reads the clients' traces and never modifies them, and
    still streams at most ``rounds`` local rounds per async client."""

    CASES = {
        "sync": lambda: dict(mode="sync"),
        "semisync": lambda: dict(
            mode="semisync", selector=RandomSelector(4, seed=0), target_reports=3
        ),
        "async-static": lambda: dict(mode="async", buffer_size=3),
        "async-tuned": lambda: dict(
            mode="async",
            buffer_size=3,
            controller=make_server_controller(ServerTuneSpec("fedgpo")),
        ),
        "async-max-staleness": lambda: dict(
            mode="async", buffer_size=2, max_staleness=0
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_traces_longer_than_rounds_keep_length_and_items(self, case):
        clients = make_fleet(5, spread=1.5, rounds=6)
        before = [(c.records, list(c.records)) for c in clients]

        def engine():
            return AsyncFederationEngine(
                clients, link=LinkModel(), **self.CASES[case]()
            )

        result = engine().run(3)
        assert result.rounds
        for client, (records, items) in zip(clients, before):
            assert client.records is records
            assert len(client.records) == 6
            assert all(a is b for a, b in zip(client.records, items))
        assert result.to_dict() == reference_run(engine(), 3).to_dict()


class TestFleetRoundAccessors:
    def test_stragglers_and_total_energy(self):
        clients = [
            make_client(0, energy=3.0),
            make_client(1, energy=5.0, missed=True),
        ]
        result = AsyncFederationEngine(
            clients, link=LinkModel(**FIXED_LINK)
        ).run(1)
        (rnd,) = result.rounds
        assert rnd.total_energy == pytest.approx(8.0)
        assert rnd.stragglers == ["client-0001"]
        assert [r.client_id for r in rnd.buffered] == ["client-0000"]

    def test_to_dict_round_trips_the_report_fields(self):
        result = AsyncFederationEngine(
            make_fleet(2), link=LinkModel(**FIXED_LINK)
        ).run(1)
        payload = result.to_dict()
        assert payload["mode"] == "sync"
        assert payload["n_clients"] == 2
        (rnd,) = payload["rounds"]
        assert {r["client_id"] for r in rnd["reports"]} == {
            "client-0000",
            "client-0001",
        }
        assert all(r["status"] == "buffered" for r in rnd["reports"])
