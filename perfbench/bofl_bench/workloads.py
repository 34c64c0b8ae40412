"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`Workload.setup`
and then runs identical *units* of work: one unit is the whole workload
(the grid, the three-discipline sweep, the multi-pass replay, the PBT
run) on those inputs.  Every unit resets the state it depends on, so
repeated units in one process do the same work and must produce the
same digest.  Layers are reached through their modules' attributes at
call time (``runner.run_campaign``, not a name bound at import), so the
traced run's wrappers see every call.

Sizes are fixed here, not by options: a figure is only comparable with
another from the same sizes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any

from bofl_bench.stats import nearest_rank

#: A simulated metric: (value, unit, better) with better "higher" or "lower".
Metric = tuple[float, str, str]

#: Campaign-executor pool size (at most nproc).  One worker keeps every
#: layer in this process: spans recorded in pool children never come back
#: to the parent, and on a 2-vCPU host a second busy vCPU slows the first.
EXECUTOR_WORKERS = 1


@dataclass
class UnitResult:
    """What one unit did, and what it produced."""

    #: Operations attempted, in the workload's own unit (rounds, client-runs, ...).
    ops: int
    #: Operations that failed in the workload's own failure sense ...
    failures: int
    #: ... out of this many (the denominator of ``failed_share``).
    failure_base: int
    #: Simulated metrics, deterministic per seed: name -> (value, unit, better).
    sim: dict[str, Metric]
    #: sha256 of the canonical text of the unit's deterministic outputs.
    digest: str
    #: Human-readable detail lines (per-pair values, sample counts).
    notes: list[str] = field(default_factory=list)
    #: Correctness-check violations; any entry fails the run.
    violations: list[str] = field(default_factory=list)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _warm_objective_tensors(pairs: list[tuple[str, str]]) -> None:
    """Build the whole-space objective tensor of each (device, task) once."""
    from repro.hardware.devices import get_device
    from repro.service.archetypes import task_by_name

    for device, task in pairs:
        task_by_name(task).workload.performance_model(get_device(device)).objective_tensor()


def _num(value: float) -> str:
    """Exact float text for digests (repr round-trips every bit)."""
    return repr(float(value))


# -- failure accounting: (failed, attempted) in each workload's own sense ----


def grid_failures(campaigns: list[Any]) -> tuple[int, int]:
    """Rounds that missed their deadline, out of all rounds run."""
    return (
        sum(c.missed_rounds for c in campaigns),
        sum(len(c.records) for c in campaigns),
    )


def fleet_failures(fleet_results: list[Any]) -> tuple[int, int]:
    """Reports the server could not aggregate (straggler, cutoff, stale), out of all reports."""
    lost = sum(r.straggler_reports + r.cutoff_reports + r.staleness_drops for r in fleet_results)
    reports = sum(rnd.report_count() for r in fleet_results for rnd in r.rounds)
    return lost, reports


def service_failures(decisions: list[Any]) -> tuple[int, int]:
    """Degraded decisions (timeout, rejection or fallback plan), out of all decisions."""
    degraded = sum(
        1 for d in decisions if d.degraded is not None or d.plan.source == "fallback"
    )
    return degraded, len(decisions)


def pbt_failures(members: list[Any]) -> tuple[int, int]:
    """Member evaluations (baseline included) with no aggregation, out of all of them."""
    return sum(1 for m in members if m.aggregations == 0), len(members)


def failed_share(results: list[UnitResult]) -> float:
    """Failed over attempted across units (0.0 when nothing was attempted)."""
    base = sum(r.failure_base for r in results)
    return sum(r.failures for r in results) / base if base else 0.0


class Workload:
    """Base: a named workload with a seed-derived setup and a repeatable unit."""

    name = ""
    #: What one op is, and the name and unit of the workload's throughput.
    op_unit = ""
    throughput_name = ""
    throughput_unit = ""

    def setup(self, seed: int, workdir: str) -> Any:
        """Generate the inputs from ``seed`` and warm what every unit reuses."""
        raise NotImplementedError

    def run(self, state: Any) -> Any:
        """One unit of program work (the timed part); returns its raw outputs."""
        raise NotImplementedError

    def summarize(self, state: Any, outputs: Any) -> UnitResult:
        """Check and digest one unit's outputs (untimed)."""
        raise NotImplementedError

    def unit(self, state: Any) -> UnitResult:
        return self.summarize(state, self.run(state))


class CampaignGrid(Workload):
    """The paper's single-client grid: BoFL, Performant, Oracle on two pairs.

    Closed loop (each round waits for the previous one), serial,
    in-process, uncached.  Stresses hardware, core, ilp, bayesopt;
    bypasses the executor, caches, federated and service.
    """

    name = "campaign-grid"
    op_unit = "simulated FL round"
    throughput_name = "rounds_per_s"
    throughput_unit = "rounds/s"
    PAIRS = (("agx", "vit"), ("tx2", "lstm"))
    CONTROLLERS = ("bofl", "performant", "oracle")
    RATIO = 2.0
    ROUNDS = 100

    def setup(self, seed: int, workdir: str) -> Any:
        _warm_objective_tensors(list(self.PAIRS))
        return seed

    def run(self, state: Any) -> Any:
        from repro.sim import runner

        return {
            (device, task, controller): runner.run_campaign(
                device, task, controller, self.RATIO,
                rounds=self.ROUNDS, seed=state, use_cache=False,
            )
            for device, task in self.PAIRS
            for controller in self.CONTROLLERS
        }

    def summarize(self, state: Any, outputs: Any) -> UnitResult:
        results = outputs
        saving, regret, mbo, notes, violations, lines = [], [], [], [], [], []
        for device, task in self.PAIRS:
            bofl, perf, oracle = (results[(device, task, c)] for c in self.CONTROLLERS)
            saving.append(100.0 * (1.0 - bofl.total_energy / perf.total_energy))
            regret.append(100.0 * (bofl.total_energy / oracle.total_energy - 1.0))
            mbo.append(100.0 * bofl.mbo_energy / bofl.total_energy)
            notes.append(
                f"{device}/{task}: saving {saving[-1]:.2f} %, regret {regret[-1]:.2f} %, "
                f"MBO overhead {mbo[-1]:.3f} %"
            )
            if bofl.total_energy > perf.total_energy:
                violations.append(
                    f"{device}/{task}: BoFL spent {bofl.total_energy!r} J, more than "
                    f"Performant's {perf.total_energy!r} J"
                )
        for (device, task, controller), result in results.items():
            lines.append(
                f"{device}/{task}/{controller} {_num(result.training_energy)} "
                f"{_num(result.mbo_energy)} {result.missed_rounds} {result.explored_total}"
            )
        failures, rounds = grid_failures(list(results.values()))
        return UnitResult(
            ops=rounds,
            failures=failures,
            failure_base=rounds,
            sim={
                "sim_energy_saving_pct": (sum(saving) / len(saving), "%", "higher"),
                "sim_regret_pct": (sum(regret) / len(regret), "%", "lower"),
                "sim_mbo_overhead_pct": (sum(mbo) / len(mbo), "%", "lower"),
            },
            digest=_digest("\n".join(lines)),
            notes=notes + ["sim_* values are the mean over the two (device, task) pairs"],
            violations=violations,
        )


@dataclass
class _FleetState:
    specs: list[Any]
    workdir: str


class FleetSweep(Workload):
    """One N-client fleet run through ``run_fleet`` once per discipline.

    The three runs share one persistent campaign cache in a fresh
    directory, with the in-memory memo cleared between them: the first
    computes the 12 archetype campaigns, the next two read them back and
    copy the result once per client.  Stresses sim (prepare, executor,
    cache) and federated; campaign compute is fixed at 12 short campaigns.
    """

    name = "fleet-sweep"
    op_unit = "client in one fleet run"
    throughput_name = "clients_per_s"
    throughput_unit = "client-runs/s"
    CLIENTS = 2000
    ROUNDS = 10

    def setup(self, seed: int, workdir: str) -> Any:
        from repro.sim.fleet import FLEET_DEVICES, FLEET_TASKS, FleetSpec

        _warm_objective_tensors([(d, t) for d in FLEET_DEVICES for t in FLEET_TASKS])
        base = FleetSpec(n_clients=self.CLIENTS, rounds=self.ROUNDS, seed=seed)
        tenth = max(1, self.CLIENTS // 10)
        specs = [
            dataclasses.replace(base, mode="sync"),
            dataclasses.replace(base, mode="semisync", participants=tenth),
            dataclasses.replace(base, mode="async", buffer_size=tenth),
        ]
        return _FleetState(specs=specs, workdir=workdir)

    def run(self, state: Any) -> Any:
        from repro.sim import fleet, runner
        from repro.sim.cache import PersistentCampaignCache

        cache_dir = tempfile.mkdtemp(prefix="fleet-cache-", dir=state.workdir)
        try:
            cache = PersistentCampaignCache(cache_dir)
            runs = []
            for spec in state.specs:
                runner.clear_campaign_cache()
                runs.append((spec, fleet.run_fleet(spec, workers=EXECUTOR_WORKERS, cache=cache)))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return runs

    def summarize(self, state: Any, outputs: Any) -> UnitResult:
        from repro.sim import fleet

        runs = outputs
        by_mode = {spec.mode: result for spec, result in runs}
        sync, semi, asyn = by_mode["sync"], by_mode["semisync"], by_mode["async"]
        violations = []
        if not math.isclose(sync.total_energy, asyn.total_energy, rel_tol=1e-12):
            violations.append(
                f"sync total energy {sync.total_energy!r} J != async {asyn.total_energy!r} J"
            )
        if semi.total_energy > min(sync.total_energy, asyn.total_energy) * (1 + 1e-12):
            violations.append(
                f"semisync total energy {semi.total_energy!r} J exceeds sync/async"
            )
        lost, reports = fleet_failures([result for _, result in runs])
        cut = 100.0 * (1.0 - asyn.mean_round_latency / sync.mean_round_latency)
        summaries = [fleet.fleet_summary(spec, result) for spec, result in runs]
        return UnitResult(
            ops=sum(spec.n_clients for spec, _ in runs),
            failures=lost,
            failure_base=reports,
            sim={"sim_async_latency_cut_pct": (cut, "%", "higher")},
            digest=_digest(json.dumps(summaries, sort_keys=True)),
            notes=[
                f"{s['mode']}: energy {s['total_energy']} J, mean round latency "
                f"{s['mean_round_latency']} s, {s['aggregations']} aggregations, "
                f"{s['straggler_reports']} straggler / {s['cutoff_reports']} cutoff / "
                f"{s['staleness_drops']} stale reports"
                for s in summaries
            ],
            violations=violations,
        )


@dataclass
class _ServiceState:
    stream: list[Any]


class ServiceReplay(Workload):
    """A fleet's request stream replayed open-loop against the service.

    The stream (one request per client and round, arriving in jittered
    waves at a fixed simulated rate) is generated in setup.  Each unit
    starts a cold service (empty decision cache, profiles rebuilt) and
    replays the stream several times: pass 1 is cold, the rest warm.
    Stresses service and ilp; bypasses hardware, bayesopt, the executor.
    """

    name = "service-replay"
    op_unit = "pace decision"
    throughput_name = "decisions_per_s"
    throughput_unit = "decisions/s"
    CLIENTS = 1000
    ROUNDS = 10
    RATE = 1000.0
    PASSES = 3

    def setup(self, seed: int, workdir: str) -> Any:
        from repro.service.loadgen import fleet_requests
        from repro.sim.fleet import FLEET_DEVICES, FLEET_TASKS, FleetSpec

        _warm_objective_tensors([(d, t) for d in FLEET_DEVICES for t in FLEET_TASKS])
        spec = FleetSpec(n_clients=self.CLIENTS, rounds=self.ROUNDS, seed=seed)
        return _ServiceState(stream=fleet_requests(spec, self.RATE))

    def run(self, state: Any) -> Any:
        from repro.service import archetypes, engine

        archetypes.clear_profile_cache()
        service = engine.PaceDecisionService(engine.ServiceConfig())
        for _ in range(self.PASSES):
            # Open loop in simulated time: every request is submitted at
            # its scheduled arrival, so the generator is never late.
            base = service.clock.now
            for timed in state.stream:
                service.submit(timed.request, at=base + timed.offset)
            service.drain()
        service.close()
        return service

    def summarize(self, state: Any, outputs: Any) -> UnitResult:
        service = outputs
        stats = service.stats()
        decisions = service.decisions
        violations = []
        if len(decisions) != self.PASSES * len(state.stream):
            violations.append(
                f"{len(decisions)} decisions for {self.PASSES * len(state.stream)} requests"
            )
        for decision in decisions:
            request, plan = decision.request, decision.plan
            if plan.total_jobs != request.jobs:
                violations.append(
                    f"seq {decision.sequence}: plan runs {plan.total_jobs} jobs, "
                    f"request has {request.jobs}"
                )
            if plan.expected_latency > request.deadline * (1 + 1e-9):
                violations.append(
                    f"seq {decision.sequence}: expected latency {plan.expected_latency!r} s "
                    f"exceeds deadline {request.deadline!r} s"
                )
        degraded, _ = service_failures(decisions)
        latencies = sorted(d.latency * 1e3 for d in decisions)
        n = len(latencies)
        return UnitResult(
            ops=n,
            failures=degraded,
            failure_base=n,
            sim={
                "sim_decision_p50_ms": (nearest_rank(latencies, 50_000), "ms", "lower"),
                "sim_decision_p99_ms": (nearest_rank(latencies, 99_000), "ms", "lower"),
            },
            digest=_digest("\n".join(d.log_line() for d in decisions)),
            notes=[
                f"sim_decision_* are nearest-rank over n={n} decisions "
                f"({self.PASSES} passes of {len(state.stream)} requests at "
                f"{self.RATE:g} req/s simulated)",
                "open loop in simulated time: the generator is never late (lateness 0 s)",
                f"{stats.evaluations} evaluations, {stats.timeouts} timeouts, "
                f"{stats.rejections} rejections, {stats.fallbacks} fallbacks, "
                f"cache hit rate {stats.cache_hit_rate:.4f}",
            ],
            violations=violations[:20],
        )


@dataclass
class _PBTState:
    pbt: Any
    fleet: Any


class PBTGeneration(Workload):
    """``run_pbt``: a small population for two generations on an async fleet.

    The only workload that runs servertune and the adaptive-controller
    array walk in ``federated.vector_engine``; its prepares mix warm memo
    hits (baseline, survivors) with cold computes (mutated members).
    """

    name = "pbt-generation"
    op_unit = "member evaluation (baseline included)"
    throughput_name = "members_per_s"
    throughput_unit = "evals/s"
    CLIENTS = 200
    ROUNDS = 5
    POPULATION = 4
    GENERATIONS = 2

    def setup(self, seed: int, workdir: str) -> Any:
        from repro.servertune.pbt import PBTSpec
        from repro.sim.fleet import FLEET_DEVICES, FLEET_TASKS, FleetSpec

        _warm_objective_tensors([(d, t) for d in FLEET_DEVICES for t in FLEET_TASKS])
        fleet_spec = FleetSpec(
            n_clients=self.CLIENTS, rounds=self.ROUNDS, mode="async", seed=seed,
            buffer_size=max(1, self.CLIENTS // 10),
        )
        pbt_spec = PBTSpec(population=self.POPULATION, generations=self.GENERATIONS, seed=seed)
        return _PBTState(pbt=pbt_spec, fleet=fleet_spec)

    def run(self, state: Any) -> Any:
        from repro.servertune import pbt
        from repro.sim import runner

        runner.clear_campaign_cache()
        return pbt.run_pbt(state.pbt, state.fleet, workers=EXECUTOR_WORKERS)

    def summarize(self, state: Any, outputs: Any) -> UnitResult:
        result = outputs
        members = [result.baseline, *result.history]
        violations = []
        if result.baseline.score != 1.0:
            violations.append(f"PBT baseline scored {result.baseline.score!r}, not exactly 1.0")
        if not result.frontier:
            violations.append("PBT frontier is empty")
        best = result.best
        failures, evaluated = pbt_failures(members)
        return UnitResult(
            ops=evaluated,
            failures=failures,
            failure_base=evaluated,
            sim={"sim_pbt_best_score": (best.score, "ratio", "lower")},
            digest=_digest(json.dumps(result.to_dict(), sort_keys=True)),
            notes=[
                f"best: {best.controller} (generation {best.generation}, member "
                f"{best.member}) score {best.score:.4f} against the static baseline 1.0",
                f"frontier: {len(result.frontier)} point(s)",
            ],
            violations=violations,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (CampaignGrid(), FleetSweep(), ServiceReplay(), PBTGeneration())
}
