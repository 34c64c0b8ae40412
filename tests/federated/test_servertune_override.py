"""Regression tests: servertune overrides reach records and traces.

When a server controller scales a round's deadlines, that decision must
be auditable end to end — on the :class:`ServerRound` record
(``deadline_scale``), on every affected client's deadline, and as
``servertune.override`` events on the observability trace.  These tests
pin that path at both hook levels: the federated server and the
campaign round loop.
"""

import pytest

from repro.baselines import PerformantController
from repro.federated.client import FederatedClient
from repro.federated.deadlines import StaticDeadlines
from repro.federated.server import FederatedServer
from repro.federated.task import FLTaskSpec
from repro.hardware import SimulatedDevice
from repro.obs import runtime as obs
from repro.obs.columnar import write_trace
from repro.obs.events import read_jsonl
from repro.servertune.controllers import (
    FedGPOController,
    RoundFeedback,
    ServerTuneSpec,
    StaticKnobs,
)
from tests.conftest import build_tiny_spec, build_tiny_workload

ROUNDS = 3


def make_client(client_id, seed=0):
    spec = build_tiny_spec()
    device = SimulatedDevice(spec, build_tiny_workload(), seed=seed)
    task = FLTaskSpec(
        workload=build_tiny_workload(),
        batch_size=8,
        epochs=2,
        minibatches={"tiny": 6},
        rounds=ROUNDS,
    )
    return FederatedClient(
        client_id, PerformantController(device), task, seed=seed
    )


def make_server(controller=None, n_clients=3):
    clients = [make_client(f"c{i}", seed=i) for i in range(n_clients)]
    return FederatedServer(
        clients,
        deadline_schedule=StaticDeadlines(3.0),
        seed=0,
        server_controller=controller,
    )


def tightened_controller(step=0.2):
    """A FedGPO controller already holding a non-identity deadline scale."""
    controller = FedGPOController(
        ServerTuneSpec(controller="fedgpo", deadline_step=step)
    )
    # A straggler-free round pushes the EWMA under the lower threshold,
    # so the next round's knobs tighten the deadline to 1 - step.
    controller.observe(
        RoundFeedback(
            round_index=0,
            participants=3,
            buffered=3,
            stragglers=0,
            energy=10.0,
            latency=1.0,
        )
    )
    return controller


class TestServerRoundRecords:
    def test_override_lands_on_the_round_record(self):
        server = make_server(tightened_controller(step=0.2))
        record = server.run_round(0, total_rounds=ROUNDS)
        assert record.deadline_scale == pytest.approx(0.8)

    def test_uncontrolled_rounds_record_identity_scale(self):
        server = make_server(controller=None)
        record = server.run_round(0, total_rounds=ROUNDS)
        assert record.deadline_scale == 1.0

    def test_static_controller_records_identity_scale(self):
        server = make_server(StaticKnobs(ServerTuneSpec()))
        record = server.run_round(0, total_rounds=ROUNDS)
        assert record.deadline_scale == 1.0

    def test_client_deadlines_actually_scaled(self):
        """The recorded scale is the scale the clients trained under."""
        tuned = make_server(tightened_controller(step=0.2))
        plain = make_server(controller=None)
        tuned_round = tuned.run_round(0, total_rounds=ROUNDS)
        plain_round = plain.run_round(0, total_rounds=ROUNDS)
        assert len(tuned_round.reports) == len(plain_round.reports)
        for tuned_report, plain_report in zip(
            tuned_round.reports, plain_round.reports
        ):
            assert tuned_report.record.deadline == pytest.approx(
                plain_report.record.deadline * 0.8
            )

    def test_participation_knob_truncates_the_selection(self):
        controller = tightened_controller(step=0.2)
        # The same comfortable round also shed participation by 10%.
        spec = controller.spec
        assert spec.participation_step == pytest.approx(0.1)
        server = make_server(controller, n_clients=4)
        record = server.run_round(0, total_rounds=ROUNDS)
        # 4 participants * 0.9 participation -> round(3.6) = 4 kept; use a
        # deeper cut to see truncation.
        assert len(record.participants) <= 4
        for _ in range(6):
            controller.observe(
                RoundFeedback(
                    round_index=0, participants=4, buffered=4,
                    stragglers=0, energy=10.0, latency=1.0,
                )
            )
        expected = max(1, round(4 * controller.knobs_for(1).participation))
        record = server.run_round(1, total_rounds=ROUNDS)
        assert len(record.participants) == expected < 4


class TestOverrideTrace:
    def test_override_events_reach_the_trace(self, tmp_path):
        server = make_server(tightened_controller(step=0.2))
        with obs.session(deterministic=True) as session:
            record = server.run_round(0, total_rounds=ROUNDS)
        path = write_trace(tmp_path / "server.jsonl", session.log)
        overrides = [
            e for e in read_jsonl(path) if e.kind == "servertune.override"
        ]
        # One override per participant deadline assignment.
        assert len(overrides) == len(record.reports)
        for event in overrides:
            assert event.payload["context"] == "server"
            assert event.payload["scale"] == pytest.approx(0.8)
            assert event.payload["deadline"] == pytest.approx(
                event.payload["base_deadline"] * 0.8
            )

    def test_unscaled_rounds_emit_no_override(self, tmp_path):
        server = make_server(StaticKnobs(ServerTuneSpec()))
        with obs.session(deterministic=True) as session:
            server.run_round(0, total_rounds=ROUNDS)
        path = write_trace(tmp_path / "static.jsonl", session.log)
        kinds = {e.kind for e in read_jsonl(path)}
        assert "servertune.override" not in kinds

    def test_campaign_level_override_reaches_trace_and_records(self, tmp_path):
        """The campaign round loop scales deadlines and says so."""
        from repro.sim import clear_campaign_cache
        from repro.sim.runner import run_campaign

        clear_campaign_cache()
        spec = ServerTuneSpec(controller="fedgpo", deadline_step=0.2)
        with obs.session(deterministic=True) as session:
            tuned = run_campaign(
                "agx", "vit", "performant", 2.0,
                rounds=4, seed=0, use_cache=False, servertune=spec,
            )
        path = write_trace(tmp_path / "campaign.jsonl", session.log)
        overrides = [
            e for e in read_jsonl(path) if e.kind == "servertune.override"
        ]
        assert overrides, "adaptive campaign emitted no override events"
        for event in overrides:
            assert event.payload["context"] == "campaign"
            assert event.payload["scale"] != 1.0
        static = run_campaign(
            "agx", "vit", "performant", 2.0,
            rounds=4, seed=0, use_cache=False,
        )
        scaled_rounds = {e.payload["round"] for e in overrides}
        for index in scaled_rounds:
            assert tuned.records[index].deadline != static.records[index].deadline
