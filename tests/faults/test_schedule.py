"""Fault schedule derivation, validation and serialization."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FAULT_KINDS, FaultSchedule, FaultSpec


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSpec(kind="gremlins", start_round=0)

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError, match="start_round"):
            FaultSpec(kind="straggler", start_round=-1)

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one round"):
            FaultSpec(kind="straggler", start_round=0, rounds=0)

    def test_nonpositive_magnitude_rejected(self):
        with pytest.raises(ConfigurationError, match="magnitude"):
            FaultSpec(kind="straggler", start_round=0, magnitude=0.0)

    def test_fractional_kinds_reject_magnitude_of_one_or_more(self):
        for kind in ("sensor_outage", "transport_stall"):
            with pytest.raises(ConfigurationError, match="fraction"):
                FaultSpec(kind=kind, start_round=0, magnitude=1.0)

    @pytest.mark.parametrize("value", [float("nan"), 2.9, "3", None, True])
    def test_start_round_must_be_a_whole_number(self, value):
        with pytest.raises(ConfigurationError, match="start_round"):
            FaultSpec("sensor_outage", start_round=value)
        payload = {"kind": "sensor_outage", "start_round": value, "rounds": 1, "magnitude": 0.5}
        with pytest.raises(ConfigurationError, match="start_round"):
            FaultSpec.from_dict(payload)

    @pytest.mark.parametrize(("field", "value"), [("rounds", 1.5), ("magnitude", True)])
    def test_rounds_and_magnitude_are_typed(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            FaultSpec("straggler", start_round=0, **{field: value})

    def test_window_semantics(self):
        spec = FaultSpec(kind="straggler", start_round=3, rounds=2, magnitude=1.5)
        assert spec.end_round == 5
        assert not spec.active_in(2)
        assert spec.active_in(3)
        assert spec.active_in(4)
        assert not spec.active_in(5)

    def test_corrupting_kinds(self):
        assert FaultSpec(kind="sensor_spike", start_round=0, magnitude=4.0).corrupts_measurements
        assert FaultSpec(kind="dvfs_reject", start_round=0).corrupts_measurements
        assert not FaultSpec(kind="straggler", start_round=0, magnitude=1.2).corrupts_measurements


class TestGenerate:
    def test_same_seed_same_schedule(self):
        a = FaultSchedule.generate(7, 20)
        b = FaultSchedule.generate(7, 20)
        assert a == b
        assert hash(a) == hash(b)

    def test_different_seeds_differ(self):
        assert FaultSchedule.generate(1, 20) != FaultSchedule.generate(2, 20)

    def test_settle_rounds_kept_clean(self):
        schedule = FaultSchedule.generate(3, 20, n_faults=8, settle_rounds=4)
        assert all(f.start_round >= 4 for f in schedule.faults)

    def test_kind_pool_cycled(self):
        schedule = FaultSchedule.generate(0, 20, kinds=("straggler",), n_faults=3)
        assert schedule.kinds() == ("straggler",)

    def test_unknown_pool_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSchedule.generate(0, 10, kinds=("straggler", "gremlins"))

    def test_windows_fit_inside_campaign(self):
        schedule = FaultSchedule.generate(5, 12, n_faults=6)
        assert schedule.max_round <= 11

    def test_zero_faults_is_empty(self):
        schedule = FaultSchedule.generate(0, 10, n_faults=0)
        assert schedule.is_empty
        assert len(schedule) == 0
        assert schedule.max_round == -1

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule.generate(0, 0)
        with pytest.raises(ConfigurationError):
            FaultSchedule.generate(0, 10, n_faults=-1)
        with pytest.raises(ConfigurationError):
            FaultSchedule.generate(0, 10, min_duration=3, max_duration=2)


class TestScheduleSemantics:
    def test_active_returns_live_windows(self):
        schedule = FaultSchedule(
            faults=(
                FaultSpec(kind="straggler", start_round=2, rounds=2, magnitude=1.5),
                FaultSpec(kind="transport_loss", start_round=3),
            )
        )
        assert len(schedule.active(1)) == 0
        assert [f.kind for f in schedule.active(3)] == ["straggler", "transport_loss"]

    def test_needs_thermal_only_for_thermal_trips(self):
        hot = FaultSchedule(faults=(FaultSpec(kind="thermal_trip", start_round=0, magnitude=85.0),))
        cold = FaultSchedule(faults=(FaultSpec(kind="straggler", start_round=0, magnitude=1.2),))
        assert hot.needs_thermal
        assert not cold.needs_thermal

    def test_seed_participates_in_equality(self):
        faults = (FaultSpec(kind="straggler", start_round=2, magnitude=1.5),)
        assert FaultSchedule(faults=faults, seed=0) != FaultSchedule(faults=faults, seed=1)

    def test_usable_as_dict_key(self):
        schedule = FaultSchedule.generate(4, 10)
        assert {schedule: "cached"}[FaultSchedule.generate(4, 10)] == "cached"

    @pytest.mark.parametrize("seed", [1.5, float("nan"), True, "1", -1])
    def test_seed_must_be_a_whole_number(self, seed):
        """The seed is part of the campaign cache key; ``seed=1.5`` used to construct."""
        with pytest.raises(ConfigurationError, match="seed"):
            FaultSchedule(seed=seed)

    def test_integral_float_seed_normalizes(self):
        assert FaultSchedule(seed=3.0) == FaultSchedule(seed=3)
        assert type(FaultSchedule(seed=3.0).seed) is int

    def test_non_faultspec_members_rejected(self):
        with pytest.raises(ConfigurationError, match="FaultSpec"):
            FaultSchedule(faults=("straggler",))


class TestRoundtrip:
    def test_dict_roundtrip(self):
        schedule = FaultSchedule.generate(11, 15, n_faults=5)
        assert FaultSchedule.from_dict(schedule.to_dict()) == schedule

    def test_from_dict_requires_faults_list(self):
        with pytest.raises(ConfigurationError, match="faults"):
            FaultSchedule.from_dict({"seed": 3})

    def test_spec_from_dict_missing_field(self):
        with pytest.raises(ConfigurationError, match="missing field"):
            FaultSpec.from_dict({"kind": "straggler"})

    def test_spec_from_dict_rejects_an_unknown_field(self):
        with pytest.raises(ConfigurationError, match="'start'"):
            FaultSpec.from_dict({"kind": "straggler", "start_round": 1, "start": 2})

    def test_schedule_from_dict_names_a_bad_fault(self):
        payload = FaultSchedule.generate(11, 15, n_faults=2).to_dict()
        payload["faults"][1]["start_round"] = 2.9
        with pytest.raises(ConfigurationError, match="faults: start_round"):
            FaultSchedule.from_dict(payload)

    def test_generate_covers_every_kind(self):
        schedule = FaultSchedule.generate(0, 40, n_faults=len(FAULT_KINDS))
        assert set(schedule.kinds()) == set(FAULT_KINDS)
