"""Where the traced run wraps the program, and the per-layer metrics it reports.

Every wrapper sits on a public entry point, patched where its caller
looks it up: ``solve_schedule`` as ``repro.core.exploitation`` imported
it, ``prepare_fleet`` both in ``repro.sim.fleet`` and as
``repro.servertune.pbt`` imported it, and so on.  All probes are
installed for every workload, so a layer a workload bypasses reads ~0
rather than going unmeasured.
"""

from __future__ import annotations

from typing import Any

from bofl_bench.stats import median, tail
from bofl_bench.tracer import ROOT, Tracer, durations, layer_self_times, name_self_times

#: Measured layers, in the order the ledger prints them.
LAYERS = ("hardware", "core", "bayesopt", "ilp", "sim", "federated", "service", "servertune")


def install(tracer: Tracer) -> None:
    """Wrap every measured entry point (undo with ``tracer.uninstall()``)."""
    from repro.bayesopt.optimizer import MultiObjectiveBayesianOptimizer
    from repro.core import exploitation
    from repro.core.base import PaceController
    from repro.core.guardian import DeadlineGuardian
    from repro.federated import vector_engine
    from repro.federated.async_engine import AsyncFederationEngine
    from repro.hardware.device import SimulatedDevice
    from repro.service import engine as service_engine
    from repro.service.archetypes import ArchetypeProfile
    from repro.servertune import controllers, pbt
    from repro.sim import executor, fleet, runner
    from repro.sim.cache import PersistentCampaignCache

    counts, values, latest = tracer.counts, tracer.values, tracer.latest

    def guardian_after(args: Any, kwargs: Any, allowed: Any) -> None:
        if not allowed:
            counts["core.guardian.denied"] += 1

    def solve_after(args: Any, kwargs: Any, schedule: Any) -> None:
        values["ilp.solve.candidates"].append(float(args[0].n_configs))

    def executor_after(args: Any, kwargs: Any, report: Any) -> None:
        for timing in report.timings:
            source = "computed" if timing.source == "inline" else timing.source
            counts[f"sim.executor.cells_{source}"] += 1

    def engine_after(args: Any, kwargs: Any, result: Any) -> None:
        counts["federated.reports"] += sum(r.report_count() for r in result.rounds)
        counts["federated.buffered"] += sum(r.buffered_count() for r in result.rounds)

    seen_profiles: set[int] = set()

    def profile_after(args: Any, kwargs: Any, profile: Any) -> None:
        # The profile cache hands back the same object until it is
        # cleared, so a new object is a build.  Holding every profile
        # keeps its id from being reused by a later build.
        if id(profile) not in seen_profiles:
            seen_profiles.add(id(profile))
            latest.setdefault("profiles", []).append(profile)
            counts["service.profile.builds"] += 1

    def stats_after(args: Any, kwargs: Any, stats: Any) -> None:
        latest["service.stats"] = stats

    wrap = tracer.wrap
    wrap(SimulatedDevice, "run_job", "hardware.run_job", busy=True)
    wrap(PaceController, "run_round", "core.round")
    wrap(DeadlineGuardian, "allows_exploration", "core.guardian", busy=True,
         after=guardian_after)
    wrap(exploitation.ExploitationPlanner, "plan", "core.plan")
    wrap(MultiObjectiveBayesianOptimizer, "fit", "bayesopt.fit")
    wrap(MultiObjectiveBayesianOptimizer, "suggest", "bayesopt.suggest")
    wrap(exploitation, "solve_schedule", "ilp.solve", after=solve_after)
    wrap(runner, "run_campaign", "sim.campaign")
    wrap(executor, "run_campaign", "sim.campaign")
    wrap(executor.CampaignExecutor, "run", "sim.executor", after=executor_after)
    wrap(PersistentCampaignCache, "get", "sim.cache.get")
    wrap(PersistentCampaignCache, "put", "sim.cache.put")
    wrap(fleet, "build_fleet_clients", "sim.fleet.build_clients")
    wrap(fleet, "prepare_fleet", "sim.fleet.prepare")
    wrap(pbt, "prepare_fleet", "sim.fleet.prepare")
    wrap(AsyncFederationEngine, "run", "federated.engine", after=engine_after)
    wrap(vector_engine, "build_trace_arrays", "federated.trace_arrays")
    wrap(vector_engine, "resolve_pop_order", "federated.pop_order")
    wrap(service_engine.PaceDecisionService, "submit", "service.submit")
    wrap(service_engine.PaceDecisionService, "stats", "service.stats", busy=True,
         after=stats_after)
    wrap(ArchetypeProfile, "plan", "service.plan")
    wrap(service_engine, "get_profile", "service.profile", after=profile_after)
    wrap(pbt, "evolve", "servertune.evolve")
    for cls in (controllers.ServerController, controllers.FedGPOController,
                controllers.FedTuneController):
        wrap(cls, "observe", "servertune.observe")


#: name -> unit of every per-layer metric, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "remainder.self_s": "s",
    "traced.wall_s": "s",
    "hardware.run_job.calls": "count",
    "hardware.run_job.self_s": "s",
    "core.round.calls": "count",
    "core.round.self_s": "s",
    "core.round.p50_ms": "ms",
    "core.round.tail_ms": "ms",
    "core.guardian.checks": "count",
    "core.guardian.denied_share": "fraction",
    "core.plan.self_s": "s",
    "bayesopt.fit.calls": "count",
    "bayesopt.fit.self_s": "s",
    "bayesopt.fit.p50_ms": "ms",
    "bayesopt.suggest.calls": "count",
    "bayesopt.suggest.self_s": "s",
    "bayesopt.suggest.p50_ms": "ms",
    "ilp.solve.calls": "count",
    "ilp.solve.self_s": "s",
    "ilp.solve.p50_ms": "ms",
    "ilp.solve.tail_ms": "ms",
    "ilp.solve.max_ms": "ms",
    "ilp.solve.candidates_mean": "count",
    "ilp.solve.errors": "count",
    "sim.campaign.calls": "count",
    "sim.campaign.self_s": "s",
    "sim.executor.self_s": "s",
    "sim.executor.cells_computed": "count",
    "sim.executor.cells_memory": "count",
    "sim.executor.cells_disk": "count",
    "sim.executor.hit_share": "fraction",
    "sim.cache.get.calls": "count",
    "sim.cache.get.self_s": "s",
    "sim.cache.put.calls": "count",
    "sim.cache.put.self_s": "s",
    "sim.fleet.build_clients.self_s": "s",
    "sim.fleet.prepare.self_s": "s",
    "federated.engine.calls": "count",
    "federated.engine.self_s": "s",
    "federated.trace_arrays.self_s": "s",
    "federated.pop_order.self_s": "s",
    "federated.reports": "count",
    "federated.buffered_share": "fraction",
    "service.submit.calls": "count",
    "service.submit.self_s": "s",
    "service.submit.p50_us": "us",
    "service.submit.tail_us": "us",
    "service.plan.calls": "count",
    "service.plan.self_s": "s",
    "service.profile.builds": "count",
    "service.evaluations": "count",
    "service.cache.hit_rate": "fraction",
    "service.coalescing_ratio": "fraction",
    "service.peak_queue_depth": "count",
    "service.timeouts": "count",
    "service.rejections": "count",
    "service.fallbacks": "count",
    "servertune.evolve.self_s": "s",
    "servertune.observe.calls": "count",
    "servertune.observe.self_s": "s",
    "obs.spans": "count",
    "obs.trace_overhead_pct": "%",
}


def per_layer_metrics(
    tracer: Tracer, untraced_wall_s: float
) -> tuple[dict[str, float], list[str]]:
    """Every :data:`PER_LAYER_UNITS` metric from one traced unit, plus notes.

    Timing percentiles are 0.0 where a call was never made; a tail that
    lacks 10 samples beyond every ladder percentile is 0.0 too, and the
    notes say so with the sample count.
    """
    name_self = name_self_times(tracer)
    layer_self = layer_self_times(name_self)
    calls: dict[str, int] = {}
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    for name, (n, _) in tracer.busy.items():
        calls[name] = int(n)
    counts = tracer.counts
    notes: list[str] = []
    m: dict[str, float] = {}

    def n_calls(name: str) -> int:
        return calls.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def timing(metric: str, name: str, scale: float, kind: str) -> None:
        samples = [d * scale for d in durations(tracer, name)]
        if kind == "p50":
            m[metric] = median(samples)
        elif kind == "max":
            m[metric] = max(samples, default=0.0)
        else:
            found = tail(samples)
            m[metric] = found[1] if found is not None else 0.0
            label = f"p{found[0]:g}" if found is not None else "none (too few samples)"
            notes.append(f"{metric}: {label}, n={len(samples)}")

    root = [s for s in tracer.spans if s.name == ROOT]
    wall = sum(s.duration for s in root)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    m["remainder.self_s"] = layer_self.get("remainder", 0.0)
    m["traced.wall_s"] = wall

    m["hardware.run_job.calls"] = n_calls("hardware.run_job")
    m["hardware.run_job.self_s"] = name_self.get("hardware.run_job", 0.0)
    m["core.round.calls"] = n_calls("core.round")
    m["core.round.self_s"] = name_self.get("core.round", 0.0)
    timing("core.round.p50_ms", "core.round", 1e3, "p50")
    timing("core.round.tail_ms", "core.round", 1e3, "tail")
    m["core.guardian.checks"] = n_calls("core.guardian")
    m["core.guardian.denied_share"] = ratio(counts["core.guardian.denied"],
                                            n_calls("core.guardian"))
    m["core.plan.self_s"] = name_self.get("core.plan", 0.0)
    for call in ("fit", "suggest"):
        name = f"bayesopt.{call}"
        m[f"{name}.calls"] = n_calls(name)
        m[f"{name}.self_s"] = name_self.get(name, 0.0)
        timing(f"{name}.p50_ms", name, 1e3, "p50")
    m["ilp.solve.calls"] = n_calls("ilp.solve")
    m["ilp.solve.self_s"] = name_self.get("ilp.solve", 0.0)
    timing("ilp.solve.p50_ms", "ilp.solve", 1e3, "p50")
    timing("ilp.solve.tail_ms", "ilp.solve", 1e3, "tail")
    timing("ilp.solve.max_ms", "ilp.solve", 1e3, "max")
    candidates = tracer.values["ilp.solve.candidates"]
    m["ilp.solve.candidates_mean"] = ratio(sum(candidates), len(candidates))
    m["ilp.solve.errors"] = counts["ilp.solve.errors"]
    m["sim.campaign.calls"] = n_calls("sim.campaign")
    m["sim.campaign.self_s"] = name_self.get("sim.campaign", 0.0)
    m["sim.executor.self_s"] = name_self.get("sim.executor", 0.0)
    cells = {k: counts[f"sim.executor.cells_{k}"] for k in ("computed", "memory", "disk")}
    for source, n in cells.items():
        m[f"sim.executor.cells_{source}"] = n
    m["sim.executor.hit_share"] = ratio(cells["memory"] + cells["disk"], sum(cells.values()))
    for call in ("get", "put"):
        name = f"sim.cache.{call}"
        m[f"{name}.calls"] = n_calls(name)
        m[f"{name}.self_s"] = name_self.get(name, 0.0)
    m["sim.fleet.build_clients.self_s"] = name_self.get("sim.fleet.build_clients", 0.0)
    m["sim.fleet.prepare.self_s"] = name_self.get("sim.fleet.prepare", 0.0)
    m["federated.engine.calls"] = n_calls("federated.engine")
    m["federated.engine.self_s"] = name_self.get("federated.engine", 0.0)
    m["federated.trace_arrays.self_s"] = name_self.get("federated.trace_arrays", 0.0)
    m["federated.pop_order.self_s"] = name_self.get("federated.pop_order", 0.0)
    m["federated.reports"] = counts["federated.reports"]
    m["federated.buffered_share"] = ratio(counts["federated.buffered"],
                                          counts["federated.reports"])
    m["service.submit.calls"] = n_calls("service.submit")
    m["service.submit.self_s"] = name_self.get("service.submit", 0.0)
    timing("service.submit.p50_us", "service.submit", 1e6, "p50")
    timing("service.submit.tail_us", "service.submit", 1e6, "tail")
    m["service.plan.calls"] = n_calls("service.plan")
    m["service.plan.self_s"] = name_self.get("service.plan", 0.0)
    m["service.profile.builds"] = counts["service.profile.builds"]
    stats = tracer.latest.get("service.stats")
    m["service.evaluations"] = stats.evaluations if stats else 0
    m["service.cache.hit_rate"] = stats.cache_hit_rate if stats else 0.0
    m["service.coalescing_ratio"] = stats.coalescing_ratio if stats else 0.0
    m["service.peak_queue_depth"] = stats.peak_queue_depth if stats else 0
    m["service.timeouts"] = stats.timeouts if stats else 0
    m["service.rejections"] = stats.rejections if stats else 0
    m["service.fallbacks"] = stats.fallbacks if stats else 0
    m["servertune.evolve.self_s"] = name_self.get("servertune.evolve", 0.0)
    m["servertune.observe.calls"] = n_calls("servertune.observe")
    m["servertune.observe.self_s"] = name_self.get("servertune.observe", 0.0)
    m["obs.spans"] = len(tracer.spans)
    m["obs.trace_overhead_pct"] = 100.0 * (wall / untraced_wall_s - 1.0)

    accounted = sum(layer_self.values())
    notes.append(
        f"layer self times {accounted - m['remainder.self_s']:.6f} s + remainder "
        f"{m['remainder.self_s']:.6f} s = {accounted:.6f} s; traced wall {wall:.6f} s"
    )
    missing = set(PER_LAYER_UNITS) - set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: float(m[k]) for k in PER_LAYER_UNITS}, notes
