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
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.types import Joules, Schedule, Seconds

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
        if not self.device:
            raise ConfigurationError("request device must be non-empty")
        if not self.task:
            raise ConfigurationError("request task must be non-empty")
        if not float(self.jobs).is_integer() or self.jobs < 1:
            raise ConfigurationError(
                f"request jobs must be a whole number >= 1, got {self.jobs}"
            )
        object.__setattr__(self, "jobs", int(self.jobs))
        if not (math.isfinite(self.deadline) and self.deadline > 0):
            raise ConfigurationError(
                f"request deadline must be positive and finite, got {self.deadline}"
            )
        if not 0.0 <= self.safety_margin < 1.0:
            raise ConfigurationError(
                f"safety_margin must lie in [0, 1), got {self.safety_margin}"
            )

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
        try:
            return cls(
                device=str(raw["device"]),
                task=str(raw["task"]),
                jobs=float(raw["jobs"]),  # type: ignore[arg-type]
                deadline=float(raw["deadline"]),  # type: ignore[arg-type]
                safety_margin=float(raw.get("safety_margin", 0.02)),  # type: ignore[arg-type]
                client_id=str(raw.get("client_id", "")),
            )
        except KeyError as error:
            raise ConfigurationError(
                f"decision request is missing field {error.args[0]!r}"
            ) from None
        except (TypeError, ValueError) as error:
            raise ConfigurationError(f"malformed decision request: {error}") from None


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

    def to_dict(self) -> dict[str, object]:
        return {"frequencies": list(self.frequencies), "jobs": self.jobs}


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
        if self.source not in PLAN_SOURCES:
            raise ConfigurationError(
                f"unknown plan source {self.source!r}; "
                f"available: {', '.join(PLAN_SOURCES)}"
            )

    @property
    def total_jobs(self) -> int:
        return sum(step.jobs for step in self.steps)

    def with_source(self, source: str) -> "DecisionPlan":
        """The same plan relabelled with a different provenance."""
        if source == self.source:
            return self
        return DecisionPlan(
            request_hash=self.request_hash,
            steps=self.steps,
            expected_latency=self.expected_latency,
            expected_energy=self.expected_energy,
            source=source,
            schema=self.schema,
        )

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
        try:
            steps = tuple(
                PlanStep(
                    frequencies=tuple(float(f) for f in step["frequencies"]),  # type: ignore[index]
                    jobs=int(step["jobs"]),  # type: ignore[index]
                )
                for step in raw["steps"]  # type: ignore[union-attr]
            )
            return cls(
                request_hash=str(raw["request_hash"]),
                steps=steps,
                expected_latency=float(raw["expected_latency"]),  # type: ignore[arg-type]
                expected_energy=float(raw["expected_energy"]),  # type: ignore[arg-type]
                source=str(raw.get("source", "computed")),
                schema=int(raw.get("schema", DECISION_SCHEMA_VERSION)),  # type: ignore[call-overload]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(f"malformed decision plan: {error}") from None

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
    the load generator.
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
        Two identically-seeded loadtest runs must serialize identical
        records — the CI ``service-smoke`` job diffs exactly this.
        """
        record: dict[str, object] = {
            "seq": self.sequence,
            "client_id": self.request.client_id,
            "request_hash": request_key_hash(self.request),
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
