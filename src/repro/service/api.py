"""The pace-decision request/response schema.

BoFL's end product is a per-device answer: *given this device profile,
deadline and workload, here is the local training pace plan*.  A
:class:`DecisionRequest` carries exactly the semantic fields that
determine that answer; a :class:`DecisionPlan` is the answer itself — the
Eqn. 1 schedule as (configuration, job count) steps plus its expected
totals and the provenance of how the service produced it.

Key discipline mirrors :mod:`repro.sim.cache`: a request canonicalizes to
a JSON-stable *token* (schema-versioned, sorted keys, floats normalized
through ``float()``), and :func:`request_key_hash` digests that token.
Two requests that differ only in field ordering or float formatting hash
identically; any semantic change produces a different hash.  Identity
fields (``client_id``) deliberately stay out of the token so a thousand
clients with one archetype share a single cache entry.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.types import (
    Joules,
    Schedule,
    Seconds,
    from_mapping,
    require_items,
    require_number,
    require_positive,
    require_text,
    require_whole,
)

#: Bump whenever the request token layout or the serialized plan format
#: changes; older decision-cache entries then read as misses.
DECISION_SCHEMA_VERSION = 1

#: Plan provenance values (``DecisionPlan.source``).
PLAN_SOURCES = ("computed", "cache", "coalesced", "fallback")


@dataclass(frozen=True)
class DecisionRequest:
    """One pace-decision question posed to the service.

    Semantic fields (everything except ``client_id``) fully determine the
    plan: the device archetype, the workload, the number of local training
    jobs in the round, the round deadline, and the planner's safety
    margin.  ``client_id`` is routing metadata — it appears in decision
    logs but never in cache keys.
    """

    device: str
    task: str
    jobs: int
    deadline: Seconds
    safety_margin: float = 0.02
    client_id: str = ""  # key_exempt: routing metadata — logged, never keyed

    def __post_init__(self) -> None:
        set_field = object.__setattr__  # the request is frozen
        require_text("device", self.device)
        require_text("task", self.task)
        set_field(self, "jobs", require_whole("jobs", self.jobs, minimum=1))
        set_field(self, "deadline", require_number(
            "deadline", self.deadline, lambda d: d > 0, "be positive and finite"
        ))
        set_field(self, "safety_margin", require_number(
            "safety_margin", self.safety_margin, lambda m: 0.0 <= m < 1.0, "lie in [0, 1)"
        ))
        require_text("client_id", self.client_id, empty=True)

    def for_client(self, client_id: str) -> DecisionRequest:
        """This question, asked by ``client_id``.

        ``client_id`` is routing metadata with no invariant, so the copy
        skips the validation this request already passed: a fleet's
        per-client requests cost one validated construction per distinct
        question.  Fields are set with ``object.__setattr__`` in field
        order, as the generated ``__init__`` sets them, which keeps the
        compact instance layout; filling ``__dict__`` instead would give
        every request its own dict.
        """
        request = object.__new__(type(self))
        stamp = object.__setattr__
        stamp(request, "device", self.device)
        stamp(request, "task", self.task)
        stamp(request, "jobs", self.jobs)
        stamp(request, "deadline", self.deadline)
        stamp(request, "safety_margin", self.safety_margin)
        stamp(request, "client_id", client_id)
        return request

    def token(self) -> dict[str, object]:
        """The JSON-stable semantic identity of this request.

        The same discipline as :func:`repro.sim.cache.cache_token`: every
        semantic field, schema-versioned, floats passed through
        ``float()`` so ``2`` and ``2.0`` canonicalize identically.
        """
        return {
            "schema": DECISION_SCHEMA_VERSION,
            "kind": "decision",
            "device": self.device,
            "task": self.task,
            "jobs": int(self.jobs),
            "deadline": float(self.deadline),
            "safety_margin": float(self.safety_margin),
        }

    def to_dict(self) -> dict[str, object]:
        """The ``repro serve`` wire format (round-trips via :meth:`from_dict`)."""
        return {
            "device": self.device,
            "task": self.task,
            "jobs": int(self.jobs),
            "deadline": float(self.deadline),
            "safety_margin": float(self.safety_margin),
            "client_id": self.client_id,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "DecisionRequest":
        """Build a request from a JSON object (``repro serve`` wire format)."""
        return from_mapping(cls, raw)


def request_key_hash(request: DecisionRequest) -> str:
    """A stable hex digest of the request token (the cache key).

    Uses sha256 over the canonical JSON encoding, exactly like
    :func:`repro.sim.cache.cache_key_hash` does for campaign keys.
    """
    canonical = json.dumps(request.token(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PlanStep:
    """Run ``jobs`` training jobs at the DVFS setting ``frequencies``."""

    frequencies: tuple[float, ...]
    jobs: int

    def __post_init__(self) -> None:
        if not isinstance(self.frequencies, (list, tuple)):
            raise ConfigurationError(f"frequencies must be a list, got {self.frequencies!r}")
        frequencies = tuple(require_positive("frequencies", f) for f in self.frequencies)
        object.__setattr__(self, "frequencies", frequencies)
        object.__setattr__(self, "jobs", require_whole("jobs", self.jobs, minimum=1))

    def to_dict(self) -> dict[str, object]:
        return {"frequencies": list(self.frequencies), "jobs": self.jobs}

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "PlanStep":
        return from_mapping(cls, raw)


@dataclass(frozen=True)
class DecisionPlan:
    """The service's answer: an executable pace plan plus provenance.

    ``source`` records how the plan was produced — ``computed`` (a fresh
    profile + ILP evaluation), ``cache`` (decision-cache hit),
    ``coalesced`` (shared an in-flight evaluation with an identical
    request) or ``fallback`` (graceful degradation: every job at
    ``x_max``).
    """

    request_hash: str
    steps: tuple[PlanStep, ...]
    expected_latency: Seconds
    expected_energy: Joules
    source: str = "computed"
    schema: int = DECISION_SCHEMA_VERSION

    def __post_init__(self) -> None:
        set_field = object.__setattr__  # the plan is frozen
        require_text("request_hash", self.request_hash)
        set_field(self, "steps", require_items("steps", self.steps, PlanStep))
        for name in ("expected_latency", "expected_energy"):
            value = require_number(name, getattr(self, name), lambda v: v >= 0, "be finite and >= 0")
            set_field(self, name, value)
        if self.source not in PLAN_SOURCES:
            raise ConfigurationError(
                f"unknown plan source {self.source!r}; "
                f"available: {', '.join(PLAN_SOURCES)}"
            )
        set_field(self, "schema", require_whole("schema", self.schema, minimum=1))

    @property
    def total_jobs(self) -> int:
        return sum(step.jobs for step in self.steps)

    def with_source(self, source: str) -> "DecisionPlan":
        """The same plan relabelled with a different provenance.

        ``source`` is one of :data:`PLAN_SOURCES`; every other field is
        this plan's, already validated, so the copy skips the checks (and
        the frozen ``__setattr__``).
        """
        if source == self.source:
            return self
        plan = object.__new__(type(self))
        plan.__dict__.update(vars(self), source=source)
        return plan

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": self.schema,
            "request_hash": self.request_hash,
            "steps": [step.to_dict() for step in self.steps],
            "expected_latency": float(self.expected_latency),
            "expected_energy": float(self.expected_energy),
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "DecisionPlan":
        return from_mapping(cls, raw, steps=PlanStep.from_dict)

    @classmethod
    def from_schedule(
        cls, request_hash: str, schedule: Schedule, source: str = "computed"
    ) -> "DecisionPlan":
        """Wrap an ILP :class:`~repro.types.Schedule` as a wire-format plan."""
        steps = tuple(
            PlanStep(frequencies=entry.config.as_tuple(), jobs=entry.jobs)
            for entry in schedule.entries
            if entry.jobs > 0
        )
        return cls(
            request_hash=request_hash,
            steps=steps,
            expected_latency=float(schedule.expected_latency),
            expected_energy=float(schedule.expected_energy),
            source=source,
        )


@dataclass(frozen=True)
class Decision:
    """One completed request/response exchange, stamped in simulated time.

    ``latency`` is simulated decision latency — completion minus arrival
    on the service clock — which is what the loadtest percentiles and the
    CI p99 gate measure; wall-clock throughput is reported separately by
    the load generator.  The service keeps its answers as rows of a
    :class:`~repro.service.engine.DecisionLog` and builds a ``Decision``
    only when a row is read.
    """

    request: DecisionRequest
    plan: DecisionPlan
    arrival: Seconds
    completed: Seconds
    coalesced: bool = False
    degraded: Optional[str] = None
    sequence: int = field(default=0)

    @property
    def latency(self) -> Seconds:
        return self.completed - self.arrival

    def log_record(self) -> dict[str, object]:
        """The canonical decision-log line (byte-stable across runs).

        Everything in it is a pure function of the request stream and the
        service configuration: simulated times, the plan, and provenance.
        ``request_hash`` is the plan's, which the service sets to the
        request's key (:func:`request_key_hash`) when it answers.
        Two identically-seeded loadtest runs must serialize identical
        records — the CI ``service-smoke`` job diffs exactly this.
        """
        record: dict[str, object] = {
            "seq": self.sequence,
            "client_id": self.request.client_id,
            "request_hash": self.plan.request_hash,
            "arrival": round(float(self.arrival), 9),
            "completed": round(float(self.completed), 9),
            "latency": round(float(self.latency), 9),
            "source": self.plan.source,
            "coalesced": self.coalesced,
            "expected_latency": float(self.plan.expected_latency),
            "expected_energy": float(self.plan.expected_energy),
            "steps": [step.to_dict() for step in self.plan.steps],
        }
        if self.degraded is not None:
            record["degraded"] = self.degraded
        return record

    def log_line(self) -> str:
        return json.dumps(self.log_record(), sort_keys=True, separators=(",", ":"))
