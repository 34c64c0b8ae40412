"""Instrumentation smoke tests: the layers emit what the docs promise.

Runs a full explore-then-exploit campaign on the tiny 90-configuration
board inside an observability session and checks every instrumented layer
left its mark — events, counters, and timer histograms.
"""

import pytest

from repro.core import BoFLController
from repro.federated.deadlines import UniformDeadlines
from repro.hardware import SimulatedDevice
from repro.obs import runtime as obs
from tests.conftest import build_tiny_spec, build_tiny_workload

JOBS = 60
ROUNDS = 20


@pytest.fixture()
def traced_session(fast_config):
    """One tiny-board BoFL campaign recorded under an active session."""
    device = SimulatedDevice(build_tiny_spec(), build_tiny_workload(), seed=0)
    controller = BoFLController(device, fast_config)
    t_min = device.model.latency(device.space.max_configuration()) * JOBS
    deadlines = UniformDeadlines(2.5).generate(t_min, ROUNDS, seed=7)
    with obs.session() as session:
        records = [controller.run_round(JOBS, d) for d in deadlines]
    return session, records


class TestControllerEvents:
    def test_one_round_event_per_round(self, traced_session):
        session, records = traced_session
        rounds = session.log.events("controller.round")
        assert len(rounds) == ROUNDS
        assert [e.payload["round"] for e in rounds] == list(range(ROUNDS))
        assert session.metrics.counter("controller.rounds") == ROUNDS

    def test_round_payload_mirrors_the_record(self, traced_session):
        session, records = traced_session
        event = session.log.events("controller.round")[0]
        record = records[0]
        assert event.payload["phase"] == record.phase
        assert event.payload["energy"] == record.energy
        assert event.payload["missed"] == record.missed
        assert len(event.payload["explored"]) == record.explored_count

    def test_events_are_stamped_with_simulated_time(self, traced_session):
        session, _ = traced_session
        times = [e.t for e in session.log.events("controller.round")]
        assert times[0] > 0.0
        assert times == sorted(times)

    def test_phase_transitions_recorded(self, traced_session):
        session, _ = traced_session
        transitions = session.log.events("controller.phase_transition")
        assert [t.payload["to_phase"] for t in transitions] == [
            "pareto_construction",
            "exploitation",
        ]

    def test_exploration_counter_matches_records(self, traced_session):
        session, records = traced_session
        total = sum(r.explored_count for r in records)
        assert session.metrics.counter("controller.explorations") == total


class TestGuardianEvents:
    def test_decisions_carry_the_eqn2_margin(self, traced_session):
        session, _ = traced_session
        decisions = session.log.events("guardian.decision")
        assert decisions
        for event in decisions:
            assert event.payload["allowed"] == (event.payload["margin"] >= 0)
        checks = session.metrics.counter("guardian.checks")
        assert checks == len(decisions)
        assert session.metrics.histograms["guardian.margin_s"].count == checks


class TestMBOEvents:
    def test_gp_fits_are_timed(self, traced_session):
        session, _ = traced_session
        fits = session.log.events("mbo.fit")
        assert fits
        assert session.metrics.counter("mbo.gp_fits") == len(fits)
        assert session.metrics.histograms["mbo.gp_fit_seconds"].count == len(fits)
        for event in fits:
            assert event.payload["n_observations"] > 0
            assert event.payload["seconds"] >= 0.0

    def test_suggest_reports_ehvi_evaluations(self, traced_session):
        session, _ = traced_session
        suggests = session.log.events("mbo.suggest")
        assert suggests
        for event in suggests:
            assert event.payload["ehvi_evaluations"] > 0
            assert event.payload["picks"] <= event.payload["batch_size"]

    def test_mbo_runs_recorded_with_costs(self, traced_session):
        session, records = traced_session
        runs = session.log.events("mbo.run")
        assert len(runs) == sum(1 for r in records if r.mbo is not None)
        for event, record in zip(runs, (r for r in records if r.mbo is not None)):
            assert event.payload["energy"] == record.mbo.energy
            assert event.payload["latency"] == record.mbo.latency


class TestILPEvents:
    def test_solves_report_nodes_and_status(self, traced_session):
        session, _ = traced_session
        solves = session.log.events("ilp.solve")
        assert solves
        assert session.metrics.counter("ilp.solves") == len(solves)
        for event in solves:
            assert event.payload["status"] in ("optimal", "iteration_limit")
            assert event.payload["nodes"] >= 1
        assert session.metrics.histograms["ilp.solve_seconds"].count == len(solves)


class TestDisabledPath:
    def test_no_events_without_a_session(self, fast_config):
        device = SimulatedDevice(build_tiny_spec(), build_tiny_workload(), seed=0)
        controller = BoFLController(device, fast_config)
        t_min = device.model.latency(device.space.max_configuration()) * JOBS
        controller.run_round(JOBS, t_min * 2.5)
        assert not obs.enabled()

    def test_campaign_identical_with_and_without_session(self, fast_config):
        def run():
            device = SimulatedDevice(build_tiny_spec(), build_tiny_workload(), seed=0)
            controller = BoFLController(device, fast_config)
            t_min = device.model.latency(device.space.max_configuration()) * JOBS
            deadlines = UniformDeadlines(2.5).generate(t_min, 12, seed=7)
            return [controller.run_round(JOBS, d) for d in deadlines]

        plain = run()
        with obs.session():
            traced = run()
        assert [r.energy for r in plain] == [r.energy for r in traced]
        assert [r.explored for r in plain] == [r.explored for r in traced]
        assert [r.phase for r in plain] == [r.phase for r in traced]
