"""Chaos campaigns through the runner, cache keys, serialization, report."""

import pytest

from repro.analysis.io import campaign_from_dict, campaign_to_dict
from repro.faults import FaultSchedule, FaultSpec, RecoveryPolicy
from repro.faults.recovery import NO_RECOVERY
from repro.sim.chaos import CHAOS_PRESETS, preset_schedule, run_chaos
from repro.sim.runner import CampaignSpec, run_campaign
from repro.errors import ConfigurationError

ROUNDS = 5


def tiny_schedule():
    return FaultSchedule(
        faults=(
            FaultSpec(kind="straggler", start_round=2, magnitude=1.4),
            FaultSpec(kind="transport_loss", start_round=3),
        ),
        seed=99,
    )


class TestRunnerChaosPath:
    def test_chaos_summary_attached(self):
        result = run_campaign(
            "agx", "vit", "bofl", 2.0,
            rounds=ROUNDS, seed=0, fault_schedule=tiny_schedule(),
        )
        assert result.chaos is not None
        assert result.chaos.injected == ((2, "straggler"), (3, "transport_loss"))
        assert result.chaos.injections == 2
        assert result.chaos.lost_reports == 1
        assert result.rounds == ROUNDS

    def test_fault_free_campaign_has_no_chaos_summary(self):
        result = run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        assert result.chaos is None


class TestCacheKeys:
    def test_schedule_and_policy_separate_keys(self):
        base = CampaignSpec("agx", "vit", "bofl", 2.0, ROUNDS, 0)
        faulted = CampaignSpec(
            "agx", "vit", "bofl", 2.0, ROUNDS, 0,
            fault_schedule=tiny_schedule(),
        )
        defenseless = CampaignSpec(
            "agx", "vit", "bofl", 2.0, ROUNDS, 0,
            fault_schedule=tiny_schedule(), recovery_policy=NO_RECOVERY,
        )
        assert len({base, faulted, defenseless}) == 3

    def test_empty_schedule_normalizes_to_fault_free(self):
        explicit = CampaignSpec(
            "agx", "vit", "bofl", 2.0, ROUNDS, 0,
            fault_schedule=FaultSchedule(), recovery_policy=RecoveryPolicy(),
        )
        assert explicit == CampaignSpec("agx", "vit", "bofl", 2.0, ROUNDS, 0)

    def test_missing_policy_defaults_to_full_recovery(self):
        implied = CampaignSpec(
            "agx", "vit", "bofl", 2.0, ROUNDS, 0, fault_schedule=tiny_schedule()
        )
        explicit = CampaignSpec(
            "agx", "vit", "bofl", 2.0, ROUNDS, 0,
            fault_schedule=tiny_schedule(), recovery_policy=RecoveryPolicy(),
        )
        assert implied == explicit


class TestSerialization:
    def test_chaos_summary_roundtrips_through_dict(self):
        result = run_campaign(
            "agx", "vit", "bofl", 2.0,
            rounds=ROUNDS, seed=0, fault_schedule=tiny_schedule(),
        )
        restored = campaign_from_dict(campaign_to_dict(result))
        assert restored.chaos == result.chaos
        assert restored.total_energy == pytest.approx(result.total_energy)

    def test_fault_free_roundtrip_keeps_chaos_none(self):
        result = run_campaign("agx", "vit", "performant", 2.0, rounds=3, seed=0)
        assert campaign_from_dict(campaign_to_dict(result)).chaos is None


class TestChaosOrchestration:
    def test_report_reads_a_columnar_copy_of_the_trace(self, tmp_path):
        from repro import obs

        def chaos_view(path):
            return obs.render_view(obs.iter_trace_events(path), "chaos")

        with obs.session(deterministic=True) as session:
            run_chaos("agx", "vit", "performant", 2.0, rounds=6, seed=0)
        jsonl = obs.write_trace(tmp_path / "chaos.jsonl", session.log)
        columnar = obs.write_trace(tmp_path / "chaos.col", obs.read_jsonl(jsonl))
        assert chaos_view(columnar) == chaos_view(jsonl)

    def test_preset_schedules_are_seeded(self):
        for preset in CHAOS_PRESETS:
            a = preset_schedule(preset, 3, 12)
            assert a == preset_schedule(preset, 3, 12)
            assert set(a.kinds()) <= set(CHAOS_PRESETS[preset])

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos preset"):
            preset_schedule("entropy", 0, 10)

    def test_run_chaos_compares_against_fault_free_twin(self):
        outcome = run_chaos(
            "agx", "vit", "bofl", 2.0,
            rounds=ROUNDS, seed=0, schedule=tiny_schedule(),
        )
        assert outcome.metrics.rounds == ROUNDS
        assert outcome.metrics.faulted_rounds == 2
        assert outcome.baseline.chaos is None
        assert outcome.faulted.chaos is not None
        report = outcome.render()
        assert "Chaos campaign" in report
        assert "straggler" in report

    def test_no_recovery_flag_selects_defenseless_policy(self):
        outcome = run_chaos(
            "agx", "vit", "bofl", 2.0,
            rounds=ROUNDS, seed=0, schedule=tiny_schedule(), recovery=False,
        )
        assert outcome.policy == NO_RECOVERY
        assert outcome.faulted.chaos.checkpoints == 0
