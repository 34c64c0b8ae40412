"""Population-based search over server-controller hyperparameters.

The PBT driver of the server co-optimization subsystem: a population of
:class:`~repro.servertune.controllers.ServerTuneSpec` members is
evaluated against one shared fleet workload (each member is a full fleet
campaign riding the :class:`~repro.sim.executor.CampaignExecutor`
machinery, so archetype traces are computed once and shared across the
whole population), then evolved with the classic exploit/explore rule:
the bottom ``exploit_fraction`` of members copy the spec of a
seed-chosen elite and perturb every searched hyperparameter by a
seed-chosen explore factor.

Determinism contract
--------------------
Every stochastic decision — member initialization, donor choice,
explore factors — draws from ``np.random.default_rng((seed, generation,
member))``: a pure function of the PBT spec, never of execution order,
worker count, or cache state.  Member evaluations are pure fleet
compositions of deterministic traces.  Hence same-seed runs, serial or
sharded, produce identical surviving populations and byte-identical
deterministic obs traces; trace gathering runs under
:func:`repro.obs.runtime.suspended` so executor/cache events (which *do*
depend on worker count) never leak into the deterministic trace.

Resume: :class:`PBTState` serializes the surviving population plus the
full evaluation history; ``run_pbt(..., state=...)`` continues from
``state.next_generation`` and — because every RNG draw is addressed by
``(seed, generation, member)`` — lands on exactly the trajectory an
uninterrupted run would have taken.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import runtime as obs
from repro.servertune.controllers import (
    SERVERTUNE_CONTROLLERS,
    ServerTuneSpec,
    check_preference_weights,
)
from repro.sim.cache import PersistentCampaignCache
from repro.sim.executor import ProgressCallback
from repro.sim.fleet import FleetSpec, compose_fleet, prepare_fleet
from repro.types import (
    from_mapping,
    require_fraction,
    require_items,
    require_number,
    require_positive,
    require_whole,
)

#: The searched hyperparameters and the bounds mutation clamps into.
#: Ranges keep every sampled/perturbed spec valid by construction
#: (``straggler_lower`` stays strictly below ``straggler_upper``).
SEARCH_SPACE: dict[str, tuple[float, float]] = {
    "deadline_step": (0.05, 0.35),
    "participation_step": (0.05, 0.35),
    "straggler_upper": (0.15, 0.5),
    "straggler_lower": (0.01, 0.1),
    "smoothing": (0.2, 0.9),
    "min_participation": (0.25, 0.8),
}

#: Controllers PBT may search over (the static identity is the baseline,
#: not a member).
PBT_CONTROLLERS: tuple[str, ...] = tuple(
    name for name in SERVERTUNE_CONTROLLERS if name != "static"
)


@dataclass(frozen=True)
class PBTSpec:
    """One declarative PBT campaign over server-controller populations."""

    population: int = 8
    generations: int = 3
    seed: int = 0
    #: Fraction of the population that is elite (and, symmetrically, the
    #: fraction that exploits an elite each generation).
    exploit_fraction: float = 0.25
    #: Multiplicative perturbations explore applies per hyperparameter.
    explore_factors: tuple[float, ...] = (0.8, 1.25)
    #: Controller kinds seeded round-robin across the population.
    controllers: tuple[str, ...] = PBT_CONTROLLERS
    #: Preference weights scoring (energy-per-aggregation, latency).
    alpha_energy: float = 0.5
    alpha_time: float = 0.5
    #: FedTune members' rounds-budget patience.
    patience: int = 3

    def __post_init__(self) -> None:
        set_field = object.__setattr__  # the spec is frozen
        for name, minimum in (("population", 2), ("generations", 1), ("seed", 0)):
            set_field(self, name, require_whole(name, getattr(self, name), minimum=minimum))
        set_field(self, "exploit_fraction", require_fraction(
            "exploit_fraction", self.exploit_fraction, inclusive=False
        ))
        if not self.explore_factors:
            raise ConfigurationError("explore_factors must be non-empty")
        set_field(self, "explore_factors", tuple(
            require_positive("explore_factors", f) for f in self.explore_factors
        ))
        if not self.controllers:
            raise ConfigurationError("controllers must be non-empty")
        for name in self.controllers:
            if name not in PBT_CONTROLLERS:
                raise ConfigurationError(
                    f"unknown PBT controller {name!r}; available: "
                    f"{', '.join(PBT_CONTROLLERS)}"
                )
        check_preference_weights(self.alpha_time, self.alpha_energy)
        object.__setattr__(self, "patience", require_whole("patience", self.patience))

    @property
    def elite_count(self) -> int:
        return max(1, int(math.floor(self.population * self.exploit_fraction)))

    def to_dict(self) -> dict[str, object]:
        """JSON-stable token (state files; key-completeness contract)."""
        return {
            "kind": "pbt",
            "population": int(self.population),
            "generations": int(self.generations),
            "seed": int(self.seed),
            "exploit_fraction": float(self.exploit_fraction),
            "explore_factors": [float(f) for f in self.explore_factors],
            "controllers": list(self.controllers),
            "alpha_energy": float(self.alpha_energy),
            "alpha_time": float(self.alpha_time),
            "patience": self.patience,
        }


@dataclass(frozen=True)
class MemberRecord:
    """One member's evaluation in one generation."""

    generation: int
    member: int
    controller: str
    score: float
    energy_per_aggregation: float
    mean_latency: float
    aggregations: int
    total_energy: float
    makespan: float
    spec: ServerTuneSpec

    def __post_init__(self) -> None:
        set_field = object.__setattr__  # the record is frozen
        for name in ("generation", "member"):  # -1 marks the static baseline
            set_field(self, name, require_whole(name, getattr(self, name), minimum=-1))
        if self.controller not in SERVERTUNE_CONTROLLERS:
            raise ConfigurationError(f"unknown member controller {self.controller!r}")
        for name in ("score", "energy_per_aggregation", "mean_latency", "total_energy", "makespan"):
            value = getattr(self, name)
            if not (name == "score" and value == math.inf):  # no aggregation scores +inf
                value = require_number(name, value, lambda v: v >= 0, "be finite and >= 0")
            set_field(self, name, value)
        set_field(self, "aggregations", require_whole("aggregations", self.aggregations))
        if not isinstance(self.spec, ServerTuneSpec):
            raise ConfigurationError(f"spec must be a ServerTuneSpec, got {self.spec!r}")

    def to_dict(self) -> dict[str, object]:
        return {
            "generation": self.generation,
            "member": self.member,
            "controller": self.controller,
            "score": self.score,
            "energy_per_aggregation": self.energy_per_aggregation,
            "mean_latency": self.mean_latency,
            "aggregations": self.aggregations,
            "total_energy": self.total_energy,
            "makespan": self.makespan,
            "spec": self.spec.to_dict(),
        }

    @classmethod
    def from_dict(cls, raw: dict[str, object]) -> "MemberRecord":
        return from_mapping(cls, raw, spec=ServerTuneSpec.from_dict)


@dataclass
class PBTState:
    """Resumable driver state: the population plus evaluation history."""

    next_generation: int = 0
    members: list[ServerTuneSpec] = field(default_factory=list)
    history: list[MemberRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.next_generation = require_whole("next_generation", self.next_generation)
        self.members = list(require_items("members", self.members, ServerTuneSpec))
        self.history = list(require_items("history", self.history, MemberRecord))

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": "pbt_state",
            "next_generation": self.next_generation,
            "members": [m.to_dict() for m in self.members],
            "history": [r.to_dict() for r in self.history],
        }

    @classmethod
    def from_dict(cls, raw: dict[str, object]) -> "PBTState":
        if not isinstance(raw, dict) or raw.get("kind") != "pbt_state":
            raise ConfigurationError(f"not a PBT state payload (kind 'pbt_state'): {raw!r}")
        return from_mapping(
            cls, raw, skip=("kind",),
            members=ServerTuneSpec.from_dict, history=MemberRecord.from_dict,
        )


@dataclass
class PBTResult:
    """The outcome of one :func:`run_pbt` call."""

    spec: PBTSpec
    baseline: MemberRecord
    history: list[MemberRecord]
    population: list[ServerTuneSpec]
    frontier: list[MemberRecord]
    state: PBTState

    @property
    def best(self) -> MemberRecord:
        return min(self.history, key=lambda r: (r.score, r.generation, r.member))

    def to_dict(self) -> dict[str, object]:
        """The frontier artifact the CI smoke job uploads."""
        return {
            "kind": "pbt_result",
            "spec": self.spec.to_dict(),
            "baseline": self.baseline.to_dict(),
            "best": self.best.to_dict(),
            "frontier": [r.to_dict() for r in self.frontier],
            "population": [m.to_dict() for m in self.population],
            "history": [r.to_dict() for r in self.history],
        }

    def render(self) -> str:
        lines = [
            f"PBT: {self.spec.population} members x "
            f"{self.spec.generations} generations (seed {self.spec.seed})",
            f"  baseline (static): energy/agg {self.baseline.energy_per_aggregation:.1f} J, "
            f"latency {self.baseline.mean_latency:.1f} s",
        ]
        best = self.best
        lines.append(
            f"  best ({best.controller}, gen {best.generation}, member {best.member}): "
            f"score {best.score:.4f}, energy/agg {best.energy_per_aggregation:.1f} J, "
            f"latency {best.mean_latency:.1f} s"
        )
        lines.append("  frontier (energy/agg J, latency s, controller):")
        for record in self.frontier:
            lines.append(
                f"    {record.energy_per_aggregation:10.1f} "
                f"{record.mean_latency:8.1f}  {record.controller}"
                f"[g{record.generation}.m{record.member}]"
            )
        return "\n".join(lines)


def member_rng(seed: int, generation: int, member: int) -> np.random.Generator:
    """The RNG for one (seed, generation, member) decision point.

    Addressed, not streamed: any member's draws can be replayed in
    isolation, which is what makes resume land on the uninterrupted
    trajectory.
    """
    return np.random.default_rng((seed, generation, member))


def init_population(spec: PBTSpec) -> list[ServerTuneSpec]:
    """Seed-derived initial population: controllers round-robin, searched
    hyperparameters sampled uniformly inside :data:`SEARCH_SPACE`."""
    members = []
    for member in range(spec.population):
        rng = member_rng(spec.seed, 0, member)
        controller = spec.controllers[member % len(spec.controllers)]
        sampled = {
            name: float(rng.uniform(lo, hi))
            for name, (lo, hi) in SEARCH_SPACE.items()
        }
        members.append(
            ServerTuneSpec(
                controller=controller,
                alpha_time=spec.alpha_time,
                alpha_energy=spec.alpha_energy,
                patience=spec.patience if controller == "fedtune" else 0,
                **sampled,
            )
        )
    return members


def _evaluate(
    pbt: PBTSpec,
    fleet: FleetSpec,
    member_spec: Optional[ServerTuneSpec],
    *,
    generation: int,
    member: int,
    baseline: Optional[MemberRecord],
    workers: Optional[int],
    cache: Optional[PersistentCampaignCache],
    progress: Optional[ProgressCallback],
) -> MemberRecord:
    """Evaluate one member (or, with ``member_spec=None``, the static
    baseline) on the shared fleet workload."""
    candidate = dataclasses.replace(fleet, servertune=member_spec)
    # Trace gathering hits the executor and its caches, whose events
    # depend on worker count and cache warmth; keep them off the
    # deterministic trace.  Composition below runs under the caller's
    # obs session and is pure.
    with obs.suspended():
        clients = prepare_fleet(
            candidate, workers=workers, cache=cache, progress=progress
        )
    result = compose_fleet(candidate, clients)
    aggregations = result.aggregations
    energy_per_agg = result.total_energy / max(aggregations, 1)
    mean_latency = result.mean_round_latency
    if baseline is None:
        score = 1.0
    elif aggregations == 0:
        score = float("inf")
    else:
        scale = pbt.alpha_energy + pbt.alpha_time
        score = (
            pbt.alpha_energy
            * (energy_per_agg / max(baseline.energy_per_aggregation, 1e-12))
            + pbt.alpha_time
            * (mean_latency / max(baseline.mean_latency, 1e-12))
        ) / scale
    return MemberRecord(
        generation=generation,
        member=member,
        controller="static" if member_spec is None else member_spec.controller,
        score=score,
        energy_per_aggregation=energy_per_agg,
        mean_latency=mean_latency,
        aggregations=aggregations,
        total_energy=result.total_energy,
        makespan=result.makespan,
        spec=member_spec if member_spec is not None else ServerTuneSpec(),
    )


def evolve(
    pbt: PBTSpec,
    generation: int,
    members: list[ServerTuneSpec],
    records: list[MemberRecord],
) -> list[ServerTuneSpec]:
    """One exploit/explore step; returns the next generation's population.

    Members are ranked by score (ties break on index, keeping the order
    total and deterministic).  The bottom ``elite_count`` members copy a
    seed-chosen elite's spec (exploit) and perturb every searched
    hyperparameter by a seed-chosen explore factor, clamped into
    :data:`SEARCH_SPACE` bounds.  Survivors keep their specs untouched.
    """
    ranked = sorted(range(len(members)), key=lambda i: (records[i].score, i))
    elites = ranked[: pbt.elite_count]
    replaced = ranked[len(ranked) - pbt.elite_count:]
    evolved = list(members)
    for member in replaced:
        if member in elites:
            continue  # tiny populations: never mutate an elite
        rng = member_rng(pbt.seed, generation + 1, member)
        donor = elites[int(rng.integers(len(elites)))]
        base = members[donor]
        perturbed: dict[str, float] = {}
        for name, (lo, hi) in SEARCH_SPACE.items():
            factor = pbt.explore_factors[int(rng.integers(len(pbt.explore_factors)))]
            perturbed[name] = float(min(hi, max(lo, getattr(base, name) * factor)))
        evolved[member] = dataclasses.replace(base, **perturbed)
        if obs.enabled():
            obs.emit(
                "servertune.mutation",
                generation=generation,
                member=member,
                donor=donor,
                controller=base.controller,
                spec=evolved[member].to_dict(),
            )
            obs.count("servertune.exploits")
            obs.count("servertune.explores")
    return evolved


def pareto_front(records: list[MemberRecord]) -> list[MemberRecord]:
    """Non-dominated records under (energy-per-aggregation, latency) min.

    Strict dominance on both axes removes a point; ties survive.  Output
    is sorted by energy for stable rendering.
    """
    front = []
    for candidate in records:
        dominated = any(
            other.energy_per_aggregation < candidate.energy_per_aggregation
            and other.mean_latency < candidate.mean_latency
            for other in records
        )
        if not dominated:
            front.append(candidate)
    return sorted(
        front,
        key=lambda r: (r.energy_per_aggregation, r.mean_latency, r.generation, r.member),
    )


def render_frontier_artifact(payload: dict[str, object]) -> str:
    """Human-readable summary of a serialized :meth:`PBTResult.to_dict`.

    The read half of ``repro servertune report``: validates the artifact
    shape and renders the baseline, the best member, and the frontier.
    """
    if not isinstance(payload, dict) or payload.get("kind") != "pbt_result":
        raise ConfigurationError(f"not a PBT frontier artifact: {type(payload)!r}")
    try:
        spec = PBTSpec(
            **{
                k: (tuple(v) if isinstance(v, list) else v)
                for k, v in dict(payload["spec"]).items()  # type: ignore[arg-type]
                if k != "kind"
            }
        )
        baseline = MemberRecord.from_dict(payload["baseline"])  # type: ignore[arg-type]
        history = [MemberRecord.from_dict(r) for r in payload["history"]]  # type: ignore[union-attr]
        frontier = [MemberRecord.from_dict(r) for r in payload["frontier"]]  # type: ignore[union-attr]
        population = [
            ServerTuneSpec.from_dict(m) for m in payload["population"]  # type: ignore[union-attr]
        ]
    except (KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(
            f"malformed PBT frontier artifact: {error}"
        ) from error
    result = PBTResult(
        spec=spec,
        baseline=baseline,
        history=history,
        population=population,
        frontier=frontier,
        state=PBTState(
            next_generation=spec.generations,
            members=population,
            history=history,
        ),
    )
    return result.render()


def run_pbt(
    pbt: PBTSpec,
    fleet: FleetSpec,
    *,
    workers: Optional[int] = None,
    cache: Optional[PersistentCampaignCache] = None,
    progress: Optional[ProgressCallback] = None,
    state: Optional[PBTState] = None,
) -> PBTResult:
    """Drive a full PBT campaign (or resume one from ``state``)."""
    if fleet.servertune is not None:
        raise ConfigurationError(
            "the base fleet spec must not carry a servertune spec; "
            "PBT attaches each member's spec itself"
        )
    if state is None:
        state = PBTState(next_generation=0, members=init_population(pbt))
    elif len(state.members) != pbt.population:
        raise ConfigurationError(
            f"resume state carries {len(state.members)} members but the "
            f"spec population is {pbt.population}"
        )
    baseline = _evaluate(
        pbt, fleet, None,
        generation=-1, member=-1, baseline=None,
        workers=workers, cache=cache, progress=progress,
    )
    for generation in range(state.next_generation, pbt.generations):
        records = []
        for member, member_spec in enumerate(state.members):
            record = _evaluate(
                pbt, fleet, member_spec,
                generation=generation, member=member, baseline=baseline,
                workers=workers, cache=cache, progress=progress,
            )
            records.append(record)
            if obs.enabled():
                obs.emit(
                    "servertune.member",
                    generation=generation,
                    member=member,
                    controller=record.controller,
                    score=record.score,
                    energy_per_aggregation=record.energy_per_aggregation,
                    mean_latency=record.mean_latency,
                    aggregations=record.aggregations,
                )
                obs.count("servertune.members")
        best = min(records, key=lambda r: (r.score, r.member))
        if obs.enabled():
            obs.emit(
                "servertune.generation",
                generation=generation,
                best_member=best.member,
                best_score=best.score,
                mean_score=sum(r.score for r in records) / len(records),
            )
            obs.count("servertune.generations")
        state.history.extend(records)
        state.members = evolve(pbt, generation, state.members, records)
        state.next_generation = generation + 1
    frontier = pareto_front(state.history + [baseline])
    if obs.enabled():
        obs.emit(
            "servertune.frontier",
            points=[
                [r.energy_per_aggregation, r.mean_latency, r.controller]
                for r in frontier
            ],
            baseline_energy_per_aggregation=baseline.energy_per_aggregation,
            baseline_mean_latency=baseline.mean_latency,
        )
    return PBTResult(
        spec=pbt,
        baseline=baseline,
        history=list(state.history),
        population=list(state.members),
        frontier=frontier,
        state=state,
    )
