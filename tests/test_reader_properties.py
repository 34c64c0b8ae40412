"""One property over every JSON reader: valid payloads round-trip, bad fields are named.

Each reader unpacks a JSON object into a validated type.  A valid draw
builds an object that rebuilds equal from its own ``to_dict`` (through
JSON text).  Replacing one field with a value of the wrong type (a bool
for a number, a string, ``None`` where the field is not optional, a
fraction for an integer), with NaN or with +-inf, or dropping a required
key raises :class:`ConfigurationError` naming that field.

The spec and wire types check in their constructors; events and campaign
records are recorded results, checked by their readers
(``Event.from_dict`` and ``analysis.io.campaign_from_dict``).
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.io import campaign_from_dict, campaign_to_dict
from repro.errors import ConfigurationError
from repro.faults import FAULT_KINDS, FaultSchedule, FaultSpec, RecoveryPolicy
from repro.obs.events import Event
from repro.service.api import PLAN_SOURCES, DecisionPlan, DecisionRequest
from repro.servertune.controllers import SERVERTUNE_CONTROLLERS, ServerTuneSpec
from repro.servertune.pbt import MemberRecord, PBTState

NAN, INF = float("nan"), float("inf")

#: Sentinel for "drop this key".
DROP = object()

#: Wrong values per field kind.
BAD = {
    "number": [True, False, "1.5", None, NAN, INF, -INF, [1.0]],
    "int": [True, "3", None, 2.5, NAN, INF, -INF],
    "int or null": [True, "3", 2.5, NAN, INF, -INF],
    "text": [3, None, True, 1.5],
    "flag": ["false", "true", 0, 1, None, 1.0],
    "choice": [3, None, "bogus", True],
    "nested": ["abc", 5, None, True],
    "configs": ["abc", 5, None, [[True, 1.0, 1.0]], [[1.0, 1.0]], [["a", 1.0, 1.0]],
                [[NAN, 1.0, 1.0]], [[1.0, -INF, 1.0]]],
}


@dataclass(frozen=True)
class Reader:
    """A reader, how to draw valid payloads for it, and its fields."""

    read: Callable[[Any], Any]
    valid: st.SearchStrategy
    #: field -> kind (a key of ``BAD``)
    fields: dict[str, str]
    #: keys whose absence must be reported
    required: frozenset[str]
    #: values of a field that look wrong but are valid
    allowed: dict[str, tuple] = field(default_factory=dict)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
nonnegative = st.floats(min_value=0.0, max_value=1e9)
positive = st.floats(min_value=1e-6, max_value=1e6)
names = st.text(min_size=1, max_size=6)


def _optional(required: dict, optional: dict) -> st.SearchStrategy:
    return st.fixed_dictionaries(required, optional=optional)


requests = _optional(
    {"device": names, "task": names, "jobs": st.integers(1, 10**6), "deadline": positive},
    {"safety_margin": st.floats(0.0, 0.999), "client_id": st.text(max_size=6)},
)

steps = st.fixed_dictionaries(
    {"frequencies": st.lists(positive, min_size=1, max_size=3), "jobs": st.integers(1, 10**4)}
)
plans = _optional(
    {
        "request_hash": names,
        "steps": st.lists(steps, max_size=3),
        "expected_latency": nonnegative,
        "expected_energy": nonnegative,
    },
    {"source": st.sampled_from(PLAN_SOURCES), "schema": st.integers(1, 3)},
)

servertune_specs = _optional(
    {},
    {
        "kind": st.just("servertune"),
        "controller": st.sampled_from(SERVERTUNE_CONTROLLERS),
        "deadline_step": st.floats(0.01, 0.99),
        "participation_step": st.floats(0.01, 0.99),
        "straggler_upper": st.floats(0.3, 1.0),
        "straggler_lower": st.floats(0.0, 0.2),
        "smoothing": st.floats(0.01, 1.0),
        "alpha_time": st.floats(0.1, 1.0),
        "alpha_energy": st.floats(0.1, 1.0),
        "patience": st.integers(0, 10),
        "min_deadline_scale": st.floats(0.1, 1.0),
        "max_deadline_scale": st.floats(1.0, 3.0),
        "min_participation": st.floats(0.1, 1.0),
    },
)

member_records = st.fixed_dictionaries(
    {
        "generation": st.integers(-1, 50),
        "member": st.integers(-1, 50),
        "controller": st.sampled_from(SERVERTUNE_CONTROLLERS),
        "score": st.one_of(st.floats(0.0, 10.0), st.just(INF)),
        "energy_per_aggregation": nonnegative,
        "mean_latency": nonnegative,
        "aggregations": st.integers(0, 10**4),
        "total_energy": nonnegative,
        "makespan": nonnegative,
        "spec": servertune_specs,
    }
)

pbt_states = _optional(
    {"kind": st.just("pbt_state")},
    {
        "next_generation": st.integers(0, 20),
        "members": st.lists(servertune_specs, max_size=3),
        "history": st.lists(member_records, max_size=3),
    },
)



def _fault_specs(kind: str) -> st.SearchStrategy:
    # A fraction kind's magnitude must lie below the default of 1.0.
    fraction = kind in ("sensor_outage", "transport_stall")
    magnitude = {"magnitude": st.floats(0.01, 0.99 if fraction else 100.0)}
    return _optional(
        {"kind": st.just(kind), "start_round": st.integers(0, 100), **(magnitude if fraction else {})},
        {"rounds": st.integers(1, 10), **({} if fraction else magnitude)},
    )


fault_specs = st.sampled_from(FAULT_KINDS).flatmap(_fault_specs)
fault_schedules = _optional(
    {"faults": st.lists(fault_specs, max_size=3)}, {"seed": st.integers(0, 2**32)}
)

recovery_policies = _optional(
    {},
    {
        "checkpoint_interval": st.integers(0, 10),
        "restore_on_corruption": st.booleans(),
        "escalate_on_anomaly": st.booleans(),
        "escalation_rounds": st.integers(1, 10),
    },
)

events = st.builds(
    lambda kind, payload, t: {"kind": kind, **payload, **t},
    names,
    st.dictionaries(st.text(max_size=4).filter(lambda k: k not in ("kind", "t")), st.integers()),
    st.one_of(st.just({}), finite.map(lambda t: {"t": t})),
)

READERS = {
    "DecisionRequest": Reader(
        DecisionRequest.from_dict,
        requests,
        {"device": "text", "task": "text", "jobs": "int", "deadline": "number",
         "safety_margin": "number", "client_id": "text"},
        frozenset({"device", "task", "jobs", "deadline"}),
    ),
    "DecisionPlan": Reader(
        DecisionPlan.from_dict,
        plans,
        {"request_hash": "text", "steps": "nested", "expected_latency": "number",
         "expected_energy": "number", "source": "choice", "schema": "int"},
        frozenset({"request_hash", "steps", "expected_latency", "expected_energy"}),
    ),
    "ServerTuneSpec": Reader(
        ServerTuneSpec.from_dict,
        servertune_specs,
        {"controller": "choice", "patience": "int", **dict.fromkeys(
            ("deadline_step", "participation_step", "straggler_upper", "straggler_lower",
             "smoothing", "alpha_time", "alpha_energy", "min_deadline_scale",
             "max_deadline_scale", "min_participation"), "number")},
        frozenset(),
    ),
    "MemberRecord": Reader(
        MemberRecord.from_dict,
        member_records,
        {"generation": "int", "member": "int", "controller": "choice", "score": "number",
         "energy_per_aggregation": "number", "mean_latency": "number", "aggregations": "int",
         "total_energy": "number", "makespan": "number", "spec": "nested"},
        frozenset({"generation", "member", "controller", "score", "energy_per_aggregation",
                   "mean_latency", "aggregations", "total_energy", "makespan", "spec"}),
        # A member whose fleet never aggregated scores +inf, the worst score.
        allowed={"score": (INF,)},
    ),
    "PBTState": Reader(
        PBTState.from_dict,
        pbt_states,
        {"kind": "choice", "next_generation": "int", "members": "nested", "history": "nested"},
        frozenset({"kind"}),
    ),
    "FaultSpec": Reader(
        FaultSpec.from_dict,
        fault_specs,
        {"kind": "choice", "start_round": "int", "rounds": "int", "magnitude": "number"},
        frozenset({"kind", "start_round"}),
    ),
    "FaultSchedule": Reader(
        FaultSchedule.from_dict,
        fault_schedules,
        {"faults": "nested", "seed": "int"},
        frozenset({"faults"}),
    ),
    "RecoveryPolicy": Reader(
        RecoveryPolicy.from_dict,
        recovery_policies,
        {"checkpoint_interval": "int", "escalation_rounds": "int",
         "restore_on_corruption": "flag", "escalate_on_anomaly": "flag"},
        frozenset(),
    ),
    "Event": Reader(
        Event.from_dict,
        events,
        {"kind": "text", "t": "number"},
        frozenset({"kind"}),
    ),
}


def _json(payload: object) -> Any:
    return json.loads(json.dumps(payload))


def _names(error: ConfigurationError, name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", str(error)) is not None


def _corruptions(reader: Reader) -> st.SearchStrategy:
    """(field, bad value or DROP) pairs for one reader."""
    options = []
    for name, kind in reader.fields.items():
        bad = [v for v in BAD[kind] if v not in reader.allowed.get(name, ())]
        if name in reader.required:
            bad.append(DROP)
        options.extend((name, value) for value in bad)
    return st.sampled_from(options)


PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("name", sorted(READERS))
@PROPERTY
@given(data=st.data())
def test_valid_payloads_round_trip(name, data):
    reader = READERS[name]
    built = reader.read(data.draw(reader.valid))
    assert reader.read(_json(built.to_dict())) == built


@pytest.mark.parametrize("name", sorted(READERS))
@PROPERTY
@given(data=st.data())
def test_one_bad_field_is_named(name, data):
    reader = READERS[name]
    payload = data.draw(reader.valid)
    name, value = data.draw(_corruptions(reader))
    if value is DROP:
        payload.pop(name, None)
    else:
        payload[name] = value
    with pytest.raises(ConfigurationError) as raised:
        reader.read(payload)
    assert _names(raised.value, name), f"{raised.value} does not name {name!r}"


# -- campaign records ---------------------------------------------------------

RECORD_FIELDS = {
    "round_index": "int",
    "phase": "text",
    "deadline": "number",
    "jobs": "int",
    "elapsed": "number",
    "energy": "number",
    "missed": "flag",
    "explored": "configs",
    "explored_on_final_front": "int or null",
    "exploited_jobs": "int",
    "guardian_triggered": "flag",
}
RECORD_REQUIRED = frozenset(
    {"round_index", "phase", "deadline", "jobs", "elapsed", "energy", "missed", "explored"}
)
CAMPAIGN_FIELDS = {
    "controller": "text",
    "device": "text",
    "task": "text",
    "deadline_ratio": "number",
    "records": "nested",
}


@functools.lru_cache(maxsize=None)
def _real_campaigns() -> tuple[str, ...]:
    """Short real campaigns as JSON text: performant, bofl (MBO reports) and chaos."""
    from repro.sim.runner import CampaignSpec

    chaos = FaultSchedule.generate(3, 6, n_faults=3)
    specs = [
        CampaignSpec("agx", "vit", "performant", 2.0, rounds=3, seed=0),
        CampaignSpec("agx", "vit", "bofl", 2.0, rounds=6, seed=1),
        CampaignSpec("tx2", "lstm", "bofl", 1.5, rounds=6, seed=2, fault_schedule=chaos),
    ]
    return tuple(json.dumps(campaign_to_dict(spec.run(use_cache=False))) for spec in specs)


@st.composite
def campaigns(draw) -> dict:
    """A real campaign's payload keeping a drawn, non-empty subset of its records."""
    payload = json.loads(draw(st.sampled_from(_real_campaigns())))
    records = payload["records"]
    keep = draw(st.lists(st.integers(0, len(records) - 1), min_size=1, max_size=4, unique=True))
    payload["records"] = [records[i] for i in sorted(keep)]
    return payload


@PROPERTY
@given(payload=campaigns())
def test_valid_campaigns_round_trip(payload):
    assert _json(campaign_to_dict(campaign_from_dict(payload))) == payload


@PROPERTY
@given(data=st.data())
def test_one_bad_campaign_field_is_named(data):
    payload = data.draw(campaigns())
    if data.draw(st.booleans()):
        target, fields, required = payload, CAMPAIGN_FIELDS, frozenset(CAMPAIGN_FIELDS)
    else:
        target = data.draw(st.sampled_from(payload["records"]))
        fields, required = RECORD_FIELDS, RECORD_REQUIRED
    options = [(f, v) for f, kind in fields.items() for v in BAD[kind]]
    options += [(f, DROP) for f in required]
    name, value = data.draw(st.sampled_from(options))
    if value is DROP:
        del target[name]
    else:
        target[name] = value
    with pytest.raises(ConfigurationError) as raised:
        campaign_from_dict(payload)
    assert _names(raised.value, name), f"{raised.value} does not name {name!r}"


def test_a_corrupt_record_never_builds_a_campaign():
    """The reader checks records as it rebuilds: no half-typed result escapes."""
    payload = json.loads(_real_campaigns()[0])
    payload["records"][-1]["energy"] = "abc"
    with pytest.raises(ConfigurationError, match="energy"):
        campaign_from_dict(payload)
    assert math.isfinite(campaign_from_dict(json.loads(_real_campaigns()[0])).total_energy)
