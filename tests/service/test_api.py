"""Tests for the pace-decision request/response schema."""

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.service.api import (
    DECISION_SCHEMA_VERSION,
    Decision,
    DecisionPlan,
    DecisionRequest,
    PlanStep,
    request_key_hash,
)
from repro.types import DvfsConfiguration, Schedule, ScheduleEntry


def _request(**overrides):
    fields = dict(device="agx", task="vit", jobs=100, deadline=60.0)
    fields.update(overrides)
    return DecisionRequest(**fields)


def _schedule():
    fast = ScheduleEntry(DvfsConfiguration(2.2, 1.3, 2.1), 60)
    slow = ScheduleEntry(DvfsConfiguration(1.2, 0.8, 1.6), 40)
    return Schedule(entries=(fast, slow), expected_latency=55.0, expected_energy=900.0)


class TestDecisionRequest:
    def test_validates_fields(self):
        with pytest.raises(ConfigurationError):
            _request(device="")
        with pytest.raises(ConfigurationError):
            _request(task="")
        with pytest.raises(ConfigurationError):
            _request(jobs=0)
        with pytest.raises(ConfigurationError):
            _request(deadline=0.0)
        with pytest.raises(ConfigurationError):
            _request(safety_margin=1.0)

    def test_token_embeds_schema_version(self):
        assert _request().token()["schema"] == DECISION_SCHEMA_VERSION

    def test_hash_is_stable_hex(self):
        assert request_key_hash(_request()) == request_key_hash(_request())
        int(request_key_hash(_request()), 16)

    def test_hash_excludes_client_identity(self):
        a = request_key_hash(_request(client_id="client-0001"))
        b = request_key_hash(_request(client_id="client-0999"))
        assert a == b

    def test_hash_distinguishes_every_semantic_field(self):
        base = request_key_hash(_request())
        assert request_key_hash(_request(device="tx2")) != base
        assert request_key_hash(_request(task="lstm")) != base
        assert request_key_hash(_request(jobs=101)) != base
        assert request_key_hash(_request(deadline=60.5)) != base
        assert request_key_hash(_request(safety_margin=0.05)) != base

    def test_dict_round_trip(self):
        request = _request(client_id="client-0042")
        assert DecisionRequest.from_dict(request.to_dict()) == request

    def test_from_dict_rejects_missing_and_malformed(self):
        with pytest.raises(ConfigurationError):
            DecisionRequest.from_dict({"device": "agx"})
        with pytest.raises(ConfigurationError):
            DecisionRequest.from_dict(
                {"device": "agx", "task": "vit", "jobs": "many", "deadline": 60.0}
            )

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf"), "nan", "-inf"])
    def test_from_dict_rejects_non_finite_deadlines(self, deadline):
        raw = {"device": "agx", "task": "vit", "jobs": 10, "deadline": deadline}
        with pytest.raises(ConfigurationError, match="finite"):
            DecisionRequest.from_dict(raw)

    def test_from_dict_rejects_fractional_jobs(self):
        raw = {"device": "agx", "task": "vit", "jobs": 10.9, "deadline": 60.0}
        with pytest.raises(ConfigurationError, match="whole number"):
            DecisionRequest.from_dict(raw)

    def test_integral_float_jobs_normalize_to_int(self):
        raw = {"device": "agx", "task": "vit", "jobs": 10.0, "deadline": 60.0}
        request = DecisionRequest.from_dict(raw)
        assert request.jobs == 10 and isinstance(request.jobs, int)
        assert request == _request(jobs=10)

    @pytest.mark.parametrize("bad", [True, "3", 0, float("nan")])
    def test_jobs_must_be_a_whole_number(self, bad):
        """``jobs=True`` used to pass as 1, and ``"3"`` to die with a bare
        TypeError (or, through ``from_dict``, to pass as 3)."""
        with pytest.raises(ConfigurationError, match="jobs must be a whole"):
            _request(jobs=bad)
        raw = {"device": "agx", "task": "vit", "jobs": bad, "deadline": 60.0}
        with pytest.raises(ConfigurationError, match="jobs must be a whole"):
            DecisionRequest.from_dict(raw)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("deadline", True),
            ("deadline", "60"),
            ("safety_margin", False),
            ("device", 3),
            ("task", None),
            ("client_id", None),
        ],
    )
    def test_ill_typed_fields_are_rejected(self, field, value):
        """``deadline=True`` used to construct as a 1-second deadline, and the
        reader turned ``"client_id": null`` into client ``"None"``."""
        with pytest.raises(ConfigurationError, match=field):
            _request(**{field: value})
        raw = {**_request().to_dict(), field: value}
        with pytest.raises(ConfigurationError, match=field):
            DecisionRequest.from_dict(raw)

    def test_from_dict_names_unknown_and_missing_fields(self):
        with pytest.raises(ConfigurationError, match="'deadlne'"):
            DecisionRequest.from_dict({**_request().to_dict(), "deadlne": 60.0})
        with pytest.raises(ConfigurationError, match="missing field 'deadline'"):
            DecisionRequest.from_dict({"device": "agx", "task": "vit", "jobs": 10})

    def test_from_dict_fills_optional_fields_from_the_defaults(self):
        raw = {"device": "agx", "task": "vit", "jobs": 100, "deadline": 60}
        request = DecisionRequest.from_dict(raw)
        assert request == _request() and type(request.deadline) is float

    def test_direct_construction_rejects_the_same_values(self):
        with pytest.raises(ConfigurationError):
            _request(deadline=float("nan"))
        with pytest.raises(ConfigurationError):
            _request(jobs=10.9)

    def test_for_client_equals_the_validated_construction(self):
        question = _request(jobs=10.0, deadline=42.5, safety_margin=0.05)
        request = question.for_client("client-0007")
        built = _request(jobs=10, deadline=42.5, safety_margin=0.05, client_id="client-0007")
        assert type(request) is DecisionRequest
        assert request == built and hash(request) == hash(built)
        assert request_key_hash(request) == request_key_hash(built) == request_key_hash(question)
        assert type(request.jobs) is int
        assert request.to_dict() == built.to_dict()
        assert question.client_id == ""

    def test_for_client_sets_every_field_in_field_order(self):
        request = _request().for_client("c")
        assert list(vars(request)) == [f.name for f in dataclasses.fields(DecisionRequest)]


class TestDecisionPlan:
    def test_from_schedule_drops_zero_job_entries(self):
        schedule = Schedule(
            entries=(
                ScheduleEntry(DvfsConfiguration(2.2, 1.3, 2.1), 100),
                ScheduleEntry(DvfsConfiguration(1.2, 0.8, 1.6), 0),
            ),
            expected_latency=50.0,
            expected_energy=800.0,
        )
        plan = DecisionPlan.from_schedule("abc", schedule)
        assert len(plan.steps) == 1
        assert plan.total_jobs == 100

    def test_round_trips_float_frequencies(self):
        plan = DecisionPlan.from_schedule("abc", _schedule())
        again = DecisionPlan.from_dict(plan.to_dict())
        assert again == plan
        assert again.steps[0].frequencies == (2.2, 1.3, 2.1)

    @pytest.mark.parametrize(
        ("step", "field"),
        [
            ({"frequencies": [2.2, 1.3, 2.1], "jobs": 3.5}, "jobs"),
            ({"frequencies": [2.2, 1.3, 2.1], "jobs": True}, "jobs"),
            ({"frequencies": [2.2, float("nan"), 2.1], "jobs": 3}, "frequencies"),
            ({"frequencies": "2.2", "jobs": 3}, "frequencies"),
            ({"jobs": 3}, "frequencies"),
        ],
    )
    def test_from_dict_rejects_an_ill_typed_step(self, step, field):
        """A step's ``"jobs": 3.5`` used to truncate to 3."""
        raw = DecisionPlan.from_schedule("abc", _schedule()).to_dict()
        raw["steps"][0] = step
        with pytest.raises(ConfigurationError, match=f"steps: .*{field}"):
            DecisionPlan.from_dict(raw)

    @pytest.mark.parametrize(
        ("field", "value"),
        [("expected_energy", "900"), ("expected_latency", float("inf")),
         ("schema", 1.5), ("request_hash", None), ("steps", {"jobs": 1})],
    )
    def test_from_dict_rejects_ill_typed_fields(self, field, value):
        raw = {**DecisionPlan.from_schedule("abc", _schedule()).to_dict(), field: value}
        with pytest.raises(ConfigurationError, match=field):
            DecisionPlan.from_dict(raw)

    def test_source_is_validated(self):
        with pytest.raises(ConfigurationError):
            DecisionPlan(
                request_hash="abc",
                steps=(PlanStep((1.0, 1.0, 1.0), 1),),
                expected_latency=1.0,
                expected_energy=1.0,
                source="guesswork",
            )

    def test_with_source_relabels_without_copying_identity(self):
        plan = DecisionPlan.from_schedule("abc", _schedule())
        assert plan.with_source("computed") is plan
        relabelled = plan.with_source("cache")
        assert relabelled.source == "cache"
        assert relabelled.steps == plan.steps


class TestDecisionLog:
    def test_latency_is_completion_minus_arrival(self):
        decision = Decision(
            request=_request(),
            plan=DecisionPlan.from_schedule("abc", _schedule()),
            arrival=10.0,
            completed=10.25,
        )
        assert decision.latency == pytest.approx(0.25)

    def test_log_line_is_canonical_json(self):
        decision = Decision(
            request=_request(client_id="client-0001"),
            plan=DecisionPlan.from_schedule("abc", _schedule()),
            arrival=1.0,
            completed=1.002,
            sequence=7,
        )
        record = json.loads(decision.log_line())
        assert record["seq"] == 7
        assert record["client_id"] == "client-0001"
        assert record["source"] == "computed"
        assert "degraded" not in record
        # Canonical: sorted keys, no whitespace.
        assert decision.log_line() == json.dumps(
            record, sort_keys=True, separators=(",", ":")
        )

    def test_degraded_decisions_carry_the_reason(self):
        decision = Decision(
            request=_request(),
            plan=DecisionPlan.from_schedule("abc", _schedule(), "fallback"),
            arrival=0.0,
            completed=0.25,
            degraded="timeout",
        )
        assert json.loads(decision.log_line())["degraded"] == "timeout"
