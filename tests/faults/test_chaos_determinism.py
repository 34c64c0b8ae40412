"""Chaos determinism gates: seed-stability, serial==parallel, clean traces."""

import pytest

from repro.analysis.io import campaign_to_dict
from repro.faults import FaultSchedule, FaultSpec
from repro.obs import runtime as obs
from repro.obs.columnar import write_trace
from repro.sim.chaos import preset_schedule
from repro.sim.executor import CampaignExecutor, CampaignSpec
from repro.sim.runner import run_campaign

ROUNDS = 5


def storm():
    return FaultSchedule(
        faults=(
            FaultSpec(kind="sensor_spike", start_round=2, magnitude=5.0),
            FaultSpec(kind="client_dropout", start_round=3),
        ),
        seed=5,
    )


class TestSeedStability:
    def test_same_seed_same_chaos_campaign(self):
        first = run_campaign(
            "agx", "vit", "bofl", 2.0,
            rounds=ROUNDS, seed=0, fault_schedule=storm(), use_cache=False,
        )
        second = run_campaign(
            "agx", "vit", "bofl", 2.0,
            rounds=ROUNDS, seed=0, fault_schedule=storm(), use_cache=False,
        )
        assert campaign_to_dict(first) == campaign_to_dict(second)

    def test_schedule_changes_the_outcome(self):
        clean = run_campaign("agx", "vit", "bofl", 2.0, rounds=ROUNDS, seed=0)
        faulted = run_campaign(
            "agx", "vit", "bofl", 2.0,
            rounds=ROUNDS, seed=0, fault_schedule=storm(),
        )
        assert campaign_to_dict(clean) != campaign_to_dict(faulted)


class TestSerialParallelEquivalence:
    def test_parallel_chaos_matches_serial(self):
        spec = CampaignSpec(
            device="agx", task="vit", controller="bofl",
            deadline_ratio=2.0, rounds=ROUNDS, seed=0,
            fault_schedule=preset_schedule("transport", 1, ROUNDS, n_faults=2),
        )
        serial = CampaignExecutor(workers=1).run([spec], use_cache=False)
        parallel = CampaignExecutor(workers=2).run([spec], use_cache=False)
        assert campaign_to_dict(serial.results[0]) == campaign_to_dict(
            parallel.results[0]
        )


class TestDeterministicTraces:
    def test_deterministic_session_strips_wall_clock_payloads(self):
        with obs.session(deterministic=True) as session:
            obs.emit("mbo.fit", t=1.0, seconds=0.123, n_observations=4)
        (event,) = session.log.events("mbo.fit")
        assert "seconds" not in event.payload
        assert event.payload["n_observations"] == 4

    def test_default_session_keeps_wall_clock_payloads(self):
        with obs.session() as session:
            obs.emit("mbo.fit", t=1.0, seconds=0.123)
        (event,) = session.log.events("mbo.fit")
        assert event.payload["seconds"] == pytest.approx(0.123)

    def test_chaos_trace_is_seed_stable(self, tmp_path):
        paths = []
        for attempt in ("a", "b"):
            with obs.session(deterministic=True) as session:
                run_campaign(
                    "agx", "vit", "bofl", 2.0,
                    rounds=ROUNDS, seed=0,
                    fault_schedule=storm(), use_cache=False,
                )
            path = tmp_path / f"trace_{attempt}.jsonl"
            write_trace(path, session.log)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
