"""Failure accounting per workload, and small real runs of every workload.

The small runs shrink each workload's sizes (never its code path) so the
correctness checks, digests and traced per-layer accounting run in
seconds.
"""

import types

import pytest

from bofl_bench import probes
from bofl_bench.tracer import ROOT, Tracer
from bofl_bench.workloads import (
    CampaignGrid,
    FleetSweep,
    PBTGeneration,
    ServiceReplay,
    UnitResult,
    failed_share,
    fleet_failures,
    grid_failures,
    pbt_failures,
    service_failures,
)

ns = types.SimpleNamespace


def test_grid_failures_are_missed_rounds():
    campaigns = [ns(missed_rounds=2, records=[0] * 100), ns(missed_rounds=0, records=[0] * 100)]
    assert grid_failures(campaigns) == (2, 200)


def test_fleet_failures_are_unaggregated_reports():
    def rnd(n):
        return ns(report_count=lambda: n)

    runs = [
        ns(straggler_reports=3, cutoff_reports=0, staleness_drops=0, rounds=[rnd(10), rnd(10)]),
        ns(straggler_reports=0, cutoff_reports=4, staleness_drops=1, rounds=[rnd(13)]),
    ]
    assert fleet_failures(runs) == (8, 33)


def test_service_failures_are_degraded_decisions():
    def decision(degraded=None, source="computed"):
        return ns(degraded=degraded, plan=ns(source=source))

    decisions = [
        decision(),
        decision(source="cache"),
        decision(source="coalesced"),
        decision(degraded="timeout", source="cache"),
        decision(degraded="queue_full", source="fallback"),
        decision(source="fallback"),  # infeasible deadline: the x_max sprint
    ]
    assert service_failures(decisions) == (3, 6)


def test_pbt_failures_are_members_without_aggregations():
    members = [ns(aggregations=10), ns(aggregations=0), ns(aggregations=3)]
    assert pbt_failures(members) == (1, 3)


def test_failed_share_pools_units():
    def unit(failures, base):
        return UnitResult(ops=base, failures=failures, failure_base=base, sim={}, digest="")

    assert failed_share([unit(1, 10), unit(3, 30)]) == pytest.approx(0.1)
    assert failed_share([unit(0, 0)]) == 0.0


class SmallGrid(CampaignGrid):
    ROUNDS = 30


class SmallFleet(FleetSweep):
    CLIENTS = 40
    ROUNDS = 3


class SmallService(ServiceReplay):
    CLIENTS = 40
    ROUNDS = 3
    PASSES = 2


class SmallPBT(PBTGeneration):
    CLIENTS = 24
    ROUNDS = 2
    POPULATION = 2


@pytest.mark.parametrize("workload", [SmallGrid(), SmallFleet(), SmallService(), SmallPBT()],
                         ids=lambda w: w.name)
def test_small_workload_is_correct_deterministic_and_fully_traced(workload, tmp_path):
    state = workload.setup(seed=3, workdir=str(tmp_path))
    first = workload.unit(state)
    assert first.violations == []
    assert first.ops > 0 and 0 <= first.failures <= first.failure_base
    assert first.sim and all(unit for _, unit, _ in first.sim.values())

    tracer = Tracer()
    probes.install(tracer)
    try:
        with tracer.span(ROOT):
            traced = workload.unit(state)
    finally:
        tracer.uninstall()
    assert traced.digest == first.digest
    metrics, notes = probes.per_layer_metrics(tracer, untraced_wall_s=1.0)
    assert set(metrics) == set(probes.PER_LAYER_UNITS)
    layers = sum(metrics[f"{layer}.self_s"] for layer in probes.LAYERS)
    assert layers + metrics["remainder.self_s"] == pytest.approx(metrics["traced.wall_s"])
    assert metrics["obs.spans"] == len(tracer.spans)


def test_grid_checks_bofl_against_performant(monkeypatch, tmp_path):
    from repro.sim import runner

    real = runner.run_campaign

    def costly_bofl(device, task, controller, *args, **kwargs):
        result = real(device, task, controller, *args, **kwargs)
        if controller == "bofl":
            result.records[0].energy += 1e9
        return result

    monkeypatch.setattr(runner, "run_campaign", costly_bofl)
    workload = SmallGrid()
    result = workload.unit(workload.setup(seed=0, workdir=str(tmp_path)))
    assert len(result.violations) == 2
    assert "more than Performant" in result.violations[0]
