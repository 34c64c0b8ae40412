"""Differential tests: the engine == the per-event reference loop, byte for byte.

The contract that lets the vectorized engine be the only composition
path: for every mode, selector, knob, chaos overlay and hierarchy
topology, composing the same prepared traces through
:meth:`AsyncFederationEngine.run` and through the per-event oracle in
``tests/federated/reference_fleet.py`` must produce byte-identical
result dictionaries, fleet summaries, *and* deterministic observability
traces.
"""

import dataclasses
import json
import math
from unittest import mock

import pytest

from repro.cli import main
from repro.federated.aggregation import FedAvg
from repro.federated.async_engine import AsyncFederationEngine
from repro.federated.hierarchy import HierarchySpec
from repro.federated.selection import EnergyAwareSelector, RandomSelector
from repro.federated.transport import LinkModel
from repro.obs import runtime as obs
from repro.servertune.controllers import (
    ServerTuneSpec,
    make_server_controller,
    normalize_servertune,
)
from repro.sim.fleet import FleetSpec, compose_fleet, fleet_summary, prepare_fleet
from tests.federated.reference_fleet import (
    reference_compose_fleet,
    reference_run,
)

#: Small but heterogeneous: 2 devices x 3 tasks x 2 controllers across 6
#: archetypes, enough clients for selection/cutoff/staleness structure.
BASE = dict(
    n_clients=24,
    rounds=3,
    controllers=("performant", "linear_pace"),
    archetypes=6,
    deadline_ratio=2.0,
)


@pytest.fixture(scope="module")
def trace_cache():
    """Prepared traces per spec key, shared across the differential matrix."""
    cache = {}

    def prepare(spec):
        key = json.dumps(dataclasses.asdict(spec), sort_keys=True, default=str)
        if key not in cache:
            cache[key] = prepare_fleet(spec)
        return cache[key]

    return prepare


def compose_with(spec, clients, *, reference=False, **kwargs):
    """One composition under a deterministic obs session, through the
    engine or (``reference=True``) the per-event oracle; returns
    (result, summary json, result-dict json, trace lines)."""
    target = spec.effective_participants()
    if spec.mode == "semisync":
        selection_size = min(
            spec.n_clients, math.ceil(target * spec.over_selection)
        )
    else:
        selection_size = target
    tune = normalize_servertune(spec.servertune)
    sized = selection_size < spec.n_clients or tune is not None
    selector = None
    if spec.selector == "random" and sized:
        selector = RandomSelector(selection_size, seed=spec.seed)
    elif spec.selector == "energy" and sized:
        selector = EnergyAwareSelector(selection_size, seed=spec.seed)
    engine = AsyncFederationEngine(
        clients,
        mode=spec.mode,
        link=LinkModel(),
        selector=selector,
        aggregator=FedAvg(),
        target_reports=target if spec.mode == "semisync" else None,
        buffer_size=spec.buffer_size,
        staleness_exponent=spec.staleness_exponent,
        max_staleness=spec.max_staleness,
        controller=None if tune is None else make_server_controller(tune),
        **kwargs,
    )
    run = reference_run if reference else AsyncFederationEngine.run
    with obs.session(deterministic=True) as session:
        result = run(engine, spec.rounds)
        trace = [
            json.dumps(e.to_dict(), sort_keys=True) for e in session.log
        ]
    return (
        result,
        json.dumps(fleet_summary(spec, result), sort_keys=True),
        json.dumps(result.to_dict(), sort_keys=True),
        trace,
    )


def assert_identical(spec, clients, **kwargs):
    _, s_ref, d_ref, t_ref = compose_with(spec, clients, reference=True, **kwargs)
    _, s_vec, d_vec, t_vec = compose_with(spec, clients, **kwargs)
    assert s_ref == s_vec
    assert d_ref == d_vec
    assert t_ref == t_vec


SCENARIOS = {
    "sync": dict(BASE, mode="sync", seed=11),
    "semisync": dict(BASE, mode="semisync", seed=11),
    "async": dict(BASE, mode="async", seed=11),
    "semisync-overselect": dict(
        BASE, mode="semisync", participants=8, over_selection=1.5, seed=3
    ),
    "semisync-energy-selector": dict(
        BASE, mode="semisync", participants=8, selector="energy", seed=4
    ),
    "sync-selection": dict(BASE, mode="sync", participants=10, seed=5),
    "async-small-buffer": dict(BASE, mode="async", buffer_size=4, seed=6),
    "async-unit-buffer": dict(BASE, mode="async", buffer_size=1, seed=6),
    "async-oversized-buffer": dict(
        BASE, mode="async", buffer_size=128, seed=6
    ),
    "async-max-staleness": dict(
        BASE, mode="async", max_staleness=1, buffer_size=4, seed=9
    ),
    "sync-chaos": dict(
        BASE, mode="sync", chaos_fraction=0.5, chaos_seed=7, seed=5
    ),
    "semisync-chaos": dict(
        BASE,
        mode="semisync",
        participants=8,
        chaos_fraction=0.5,
        chaos_seed=7,
        seed=5,
    ),
    "async-chaos": dict(
        BASE,
        mode="async",
        chaos_fraction=0.5,
        chaos_seed=7,
        buffer_size=4,
        seed=5,
    ),
}

TUNED = {
    "sync-tuned": dict(
        BASE, mode="sync", servertune=ServerTuneSpec(controller="fedgpo"), seed=9
    ),
    "semisync-tuned": dict(
        BASE,
        mode="semisync",
        participants=8,
        servertune=ServerTuneSpec(controller="fedgpo"),
        seed=9,
    ),
    "async-tuned": dict(
        BASE,
        mode="async",
        buffer_size=4,
        servertune=ServerTuneSpec(controller="fedgpo"),
        seed=9,
    ),
    "sync-halting": dict(
        BASE,
        mode="sync",
        rounds=8,
        servertune=ServerTuneSpec(controller="fedtune", patience=1),
        seed=2,
    ),
    "async-halting": dict(
        BASE,
        mode="async",
        rounds=8,
        buffer_size=4,
        servertune=ServerTuneSpec(controller="fedtune", patience=1),
        seed=2,
    ),
}


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_static_scenarios(self, name, trace_cache):
        spec = FleetSpec(**SCENARIOS[name])
        assert_identical(spec, trace_cache(spec))

    @pytest.mark.parametrize("name", sorted(TUNED))
    def test_tuned_scenarios(self, name, trace_cache):
        """Adaptive knobs (participation, patience, buffer rescale, halt)
        drive the control paths the vector engine must mirror."""
        spec = FleetSpec(**TUNED[name])
        assert_identical(spec, trace_cache(spec))

    @pytest.mark.parametrize("mode", ["sync", "semisync", "async"])
    def test_hierarchy_scenarios(self, mode, trace_cache):
        """reference+hierarchy == engine+hierarchy (both call
        combine_hierarchical; each must feed it identically)."""
        spec = FleetSpec(**dict(BASE, mode=mode, seed=13))
        assert_identical(
            spec, trace_cache(spec), hierarchy=HierarchySpec(n_edges=4)
        )


class TestComposeFleetEquivalence:
    """The orchestration-layer wrapper honors the same contract."""

    @pytest.mark.parametrize("mode", ["sync", "semisync", "async"])
    def test_compose_fleet_engines_agree(self, mode, trace_cache):
        spec = FleetSpec(**dict(BASE, mode=mode, seed=21))
        clients = trace_cache(spec)
        reference = reference_compose_fleet(spec, clients)
        vectorized = compose_fleet(spec, clients)
        assert json.dumps(reference.to_dict(), sort_keys=True) == json.dumps(
            vectorized.to_dict(), sort_keys=True
        )

    def test_hierarchical_spec_through_compose_fleet(self, trace_cache):
        spec = FleetSpec(**dict(BASE, mode="async", seed=21, edges=3))
        clients = trace_cache(spec)
        reference = reference_compose_fleet(spec, clients)
        vectorized = compose_fleet(spec, clients)
        assert reference.to_dict() == vectorized.to_dict()
        summary = fleet_summary(spec, vectorized)
        assert summary["edges"] == 3

    def test_hierarchy_changes_the_probe(self, trace_cache):
        """Hierarchy is a different mean — not a silent no-op."""
        flat_spec = FleetSpec(**dict(BASE, mode="sync", seed=21))
        edge_spec = FleetSpec(**dict(BASE, mode="sync", seed=21, edges=3))
        clients = trace_cache(flat_spec)
        flat = compose_fleet(flat_spec, clients)
        edged = compose_fleet(edge_spec, clients)
        flat_probes = [r.model_probe for r in flat.rounds]
        edge_probes = [r.model_probe for r in edged.rounds]
        assert flat_probes != edge_probes


#: One spec per composition shape stats mode must match: both round
#: disciplines, the static FedBuff drain, a staleness bound, buffer
#: rescaling and a halt.
STATS_CASES = {
    "sync": dict(BASE, mode="sync", seed=17),
    "semisync": dict(BASE, mode="semisync", seed=17),
    "async": dict(BASE, mode="async", seed=17),
    "async-max-staleness": SCENARIOS["async-max-staleness"],
    "async-tuned": TUNED["async-tuned"],
    "async-halting": TUNED["async-halting"],
}


class TestStatsDetail:
    """detail="stats" carries the same scorecard without report objects."""

    @pytest.mark.parametrize("name", list(STATS_CASES))
    def test_stats_summary_matches_reports(self, name, trace_cache):
        spec = FleetSpec(**STATS_CASES[name])
        clients = trace_cache(spec)
        _, s_rep, _, t_rep = compose_with(spec, clients)
        result, s_st, _, t_st = compose_with(spec, clients, detail="stats")
        assert s_rep == s_st
        assert t_rep == t_st  # emission is independent of materialization
        assert result.rounds
        assert all(not r.reports for r in result.rounds)
        assert all(r.stats is not None for r in result.rounds)

    @pytest.mark.parametrize("mode", ["sync", "semisync"])
    def test_stats_accepts_controlled_rounds(self, mode, trace_cache):
        spec = FleetSpec(**dict(BASE, mode=mode, seed=17))
        tune = ServerTuneSpec("fedgpo")
        engine = AsyncFederationEngine(
            trace_cache(spec),
            mode=mode,
            selector=RandomSelector(12, seed=17),
            controller=make_server_controller(tune),
            detail="stats",
        )
        assert all(r.stats is not None for r in engine.run(spec.rounds).rounds)

    def test_stats_round_trip_through_to_dict(self, trace_cache):
        spec = FleetSpec(**dict(BASE, mode="async", seed=17))
        result = compose_fleet(
            spec, trace_cache(spec), detail="stats"
        )
        payload = result.to_dict()
        assert all("stats" in rnd for rnd in payload["rounds"])


class TestFleetSmokeSpec:
    """CI's fleet-smoke spec, end to end through ``repro fleet run``."""

    SMOKE = [
        "fleet", "run", "--clients", "60", "--rounds", "3", "--mode", "async",
        "--buffer", "12", "--archetypes", "6", "--chaos", "0.1", "--seed", "0",
        "--workers", "1",
    ]

    def test_cli_trace_matches_the_reference_loop(self, tmp_path, capsys):
        engine_trace = tmp_path / "fleet_engine.jsonl"
        reference_trace = tmp_path / "fleet_reference.jsonl"
        assert main([*self.SMOKE, "--trace", str(engine_trace)]) == 0
        with mock.patch.object(AsyncFederationEngine, "run", reference_run):
            assert main([*self.SMOKE, "--trace", str(reference_trace)]) == 0
        capsys.readouterr()
        assert engine_trace.read_bytes() == reference_trace.read_bytes()
        assert b"fleet.aggregate" in engine_trace.read_bytes()
