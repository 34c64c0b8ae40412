"""Unit tests for the shared value types."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.types import (
    DvfsConfiguration,
    EnergyLedger,
    JobResult,
    ObjectiveVector,
    PerformanceSample,
    RoundBudget,
    Schedule,
    ScheduleEntry,
    from_mapping,
    require_flag,
    require_fraction,
    require_items,
    require_number,
    require_positive,
    require_text,
    require_whole,
)


class TestDvfsConfiguration:
    def test_tuple_roundtrip(self):
        config = DvfsConfiguration(1.0, 0.5, 2.0)
        assert config.as_tuple() == (1.0, 0.5, 2.0)
        assert tuple(config) == (1.0, 0.5, 2.0)

    def test_is_hashable_and_equal_by_value(self):
        a = DvfsConfiguration(1.0, 0.5, 2.0)
        b = DvfsConfiguration(1.0, 0.5, 2.0)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_ordering_is_lexicographic(self):
        assert DvfsConfiguration(1.0, 9.0, 9.0) < DvfsConfiguration(2.0, 0.1, 0.1)
        assert DvfsConfiguration(1.0, 0.5, 1.0) < DvfsConfiguration(1.0, 0.6, 0.1)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_invalid_frequencies(self, bad):
        with pytest.raises(ConfigurationError):
            DvfsConfiguration(bad, 1.0, 1.0)


class TestPerformanceSample:
    def _sample(self, latency=0.1, energy=2.0, jobs=4, duration=0.4):
        return PerformanceSample(
            DvfsConfiguration(1.0, 1.0, 1.0), latency, energy, jobs, duration
        )

    def test_objectives_vector(self):
        assert self._sample().objectives == (0.1, 2.0)

    def test_merge_is_job_weighted(self):
        a = self._sample(latency=0.1, energy=2.0, jobs=1)
        b = PerformanceSample(a.config, 0.3, 4.0, jobs_measured=3, duration=0.9)
        merged = a.merged_with(b)
        assert merged.jobs_measured == 4
        assert merged.latency == pytest.approx(0.25)
        assert merged.energy == pytest.approx(3.5)
        assert merged.duration == pytest.approx(1.3)

    def test_merge_rejects_different_configs(self):
        a = self._sample()
        b = PerformanceSample(DvfsConfiguration(2.0, 1.0, 1.0), 0.1, 2.0)
        with pytest.raises(ConfigurationError):
            a.merged_with(b)

    @pytest.mark.parametrize("latency,energy", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_rejects_nonpositive_objectives(self, latency, energy):
        with pytest.raises(ConfigurationError):
            PerformanceSample(DvfsConfiguration(1, 1, 1), latency, energy)

    def test_rejects_zero_jobs(self):
        with pytest.raises(ConfigurationError):
            PerformanceSample(DvfsConfiguration(1, 1, 1), 0.1, 1.0, jobs_measured=0)


class TestRoundBudget:
    def test_tracks_jobs_and_time(self):
        budget = RoundBudget(total_jobs=3, deadline=10.0)
        result = JobResult(DvfsConfiguration(1, 1, 1), latency=2.0, energy=1.0)
        budget.record_job(result)
        assert budget.jobs_done == 1
        assert budget.jobs_remaining == 2
        assert budget.elapsed == pytest.approx(2.0)
        assert budget.time_remaining == pytest.approx(8.0)
        assert not budget.finished

    def test_finished_after_all_jobs(self):
        budget = RoundBudget(total_jobs=1, deadline=10.0)
        budget.record_job(JobResult(DvfsConfiguration(1, 1, 1), 1.0, 1.0))
        assert budget.finished
        with pytest.raises(ConfigurationError):
            budget.record_job(JobResult(DvfsConfiguration(1, 1, 1), 1.0, 1.0))

    def test_missed_when_time_runs_out(self):
        budget = RoundBudget(total_jobs=2, deadline=1.0)
        budget.record_job(JobResult(DvfsConfiguration(1, 1, 1), 2.0, 1.0))
        assert budget.missed

    def test_rejects_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            RoundBudget(total_jobs=0, deadline=1.0)
        with pytest.raises(ConfigurationError):
            RoundBudget(total_jobs=1, deadline=0.0)


class TestSchedule:
    def test_total_jobs_and_iteration(self):
        entries = (
            ScheduleEntry(DvfsConfiguration(1, 1, 1), 3),
            ScheduleEntry(DvfsConfiguration(2, 1, 1), 2),
        )
        schedule = Schedule(entries, expected_latency=1.0, expected_energy=5.0)
        assert schedule.total_jobs == 5
        assert len(schedule) == 2
        assert [e.jobs for e in schedule] == [3, 2]

    def test_entry_rejects_negative_jobs(self):
        with pytest.raises(ConfigurationError):
            ScheduleEntry(DvfsConfiguration(1, 1, 1), -1)


class TestObjectiveVector:
    def test_dominates_strictly_better(self):
        assert ObjectiveVector(1.0, 1.0).dominates(ObjectiveVector(2.0, 2.0))
        assert ObjectiveVector(1.0, 2.0).dominates(ObjectiveVector(1.0, 3.0))

    def test_equal_points_do_not_dominate(self):
        a = ObjectiveVector(1.0, 1.0)
        assert not a.dominates(ObjectiveVector(1.0, 1.0))

    def test_incomparable_points(self):
        a = ObjectiveVector(1.0, 3.0)
        b = ObjectiveVector(3.0, 1.0)
        assert not a.dominates(b)
        assert not b.dominates(a)


class TestEnergyLedger:
    def test_categories_accumulate(self):
        ledger = EnergyLedger()
        ledger.add("training", 10.0)
        ledger.add("mbo_overhead", 1.0)
        ledger.add("idle", 0.5)
        ledger.add("radio", 2.0)
        assert ledger.total == pytest.approx(13.5)
        assert ledger.extras["radio"] == pytest.approx(2.0)

    def test_rejects_negative_amounts(self):
        with pytest.raises(ConfigurationError):
            EnergyLedger().add("training", -1.0)


class TestValidators:
    def test_require_positive(self):
        assert require_positive("x", 1.5) == 1.5
        for bad in (0, -1, float("nan")):
            with pytest.raises(ConfigurationError):
                require_positive("x", bad)

    @pytest.mark.parametrize("flag", [True, False])
    def test_numbers_are_never_bools(self, flag):
        """``require_positive("deadline", True)`` used to return 1.0."""
        for check in (require_positive, require_fraction, require_number):
            with pytest.raises(ConfigurationError, match="x must"):
                check("x", flag)

    def test_require_number(self):
        assert require_number("x", -3) == -3.0 and type(require_number("x", 2)) is float
        assert require_number("x", 0.5, lambda v: v < 1, "be < 1") == 0.5
        for bad in (float("nan"), float("inf"), float("-inf"), "1.0", None, [1.0]):
            with pytest.raises(ConfigurationError, match="x must be a finite number"):
                require_number("x", bad)
        with pytest.raises(ConfigurationError, match="x must be < 1, got 2"):
            require_number("x", 2, lambda v: v < 1, "be < 1")

    def test_require_text_and_flag(self):
        assert require_text("s", "a") == "a"
        assert require_text("s", "", empty=True) == ""
        for bad in ("", None, 3, b"a"):
            with pytest.raises(ConfigurationError, match="s must be a non-empty string"):
                require_text("s", bad)
        assert require_flag("f", False) is False
        for bad in (0, 1, "false", None):
            with pytest.raises(ConfigurationError, match="f must be true or false"):
                require_flag("f", bad)

    def test_require_items(self):
        assert require_items("xs", [1, 2], int) == (1, 2)
        for bad in ((1, "2"), "12", None):
            with pytest.raises(ConfigurationError, match="xs must be a list of int"):
                require_items("xs", bad, int)

    def test_from_mapping_names_missing_and_unknown_keys(self):
        assert from_mapping(ScheduleEntry, {"config": DvfsConfiguration(1, 1, 1), "jobs": 2}).jobs == 2
        with pytest.raises(ConfigurationError, match="ScheduleEntry is missing field 'jobs'"):
            from_mapping(ScheduleEntry, {"config": DvfsConfiguration(1, 1, 1)})
        with pytest.raises(ConfigurationError, match="ScheduleEntry has no field 'job'"):
            from_mapping(ScheduleEntry, {"config": DvfsConfiguration(1, 1, 1), "jobs": 2, "job": 2})
        with pytest.raises(ConfigurationError, match="must be a JSON object"):
            from_mapping(ScheduleEntry, [1, 2])

    def test_require_fraction(self):
        assert require_fraction("x", 0.0) == 0.0
        assert require_fraction("x", 1.0) == 1.0
        with pytest.raises(ConfigurationError):
            require_fraction("x", 1.01)
        with pytest.raises(ConfigurationError):
            require_fraction("x", 0.0, inclusive=False)

    def test_require_nonnegative_int(self):
        """The non-negative integer rule is `require_whole`'s default."""
        assert require_whole("n", 0) == 0
        with pytest.raises(ConfigurationError):
            require_whole("n", -1)
        with pytest.raises(ConfigurationError):
            require_whole("n", 1.5)
        with pytest.raises(ConfigurationError):
            require_whole("n", True)

    def test_require_whole(self):
        assert require_whole("n", 0) == 0
        assert require_whole("n", np.int64(4), minimum=1) == 4
        for integral in (7.0, np.float64(7.0)):
            assert type(require_whole("n", integral)) is int
        for bad in (-1, 0.5, float("nan"), float("inf"), True, "3", None):
            with pytest.raises(ConfigurationError, match="n must be"):
                require_whole("n", bad)
        with pytest.raises(ConfigurationError, match=">= 2"):
            require_whole("n", 1, minimum=2)
