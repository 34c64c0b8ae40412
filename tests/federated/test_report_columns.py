"""Reports-mode rounds keep their reports as columns.

The engine's ``detail="reports"`` rounds hold a
:class:`~repro.federated.async_engine.ReportColumns` and build
:class:`FleetReport` objects only when ``round.reports`` is read.  These
tests hold that representation to the per-event oracle's objects (field
by field, float bits and Python types included), pin the serialized
result of the CI smoke spec to a digest recorded before the change
(``golden/smoke_results.sha256``), and check that the accessors the
scorecard and the failure accounting use build no object and that the
columns retain a fraction of what the objects did.
"""

import dataclasses
import gc
import hashlib
import json
import pathlib
import tracemalloc

import pytest

from repro.federated import async_engine
from repro.federated.async_engine import FleetReport, ReportColumns
from repro.sim.fleet import (
    FleetSpec,
    compose_fleet,
    fleet_summary,
    prepare_fleet,
    run_fleet,
)
from tests.federated.reference_fleet import reference_compose_fleet

GOLDEN = pathlib.Path(__file__).parent / "golden" / "smoke_results.sha256"

#: CI's fleet-smoke spec (``repro fleet run --clients 60 --rounds 3
#: --mode async --buffer 12 --archetypes 6 --chaos 0.1 --seed 0``), in
#: the two disciplines CI composes.
SMOKE = FleetSpec(
    n_clients=60, rounds=3, mode="async", buffer_size=12, archetypes=6,
    chaos_fraction=0.1, seed=0,
)
SMOKE_MODES = ("async", "sync")

BASE = dict(
    n_clients=24,
    rounds=3,
    controllers=("performant", "linear_pace"),
    archetypes=6,
    deadline_ratio=2.0,
    seed=11,
)

#: One spec per composition path: sync rounds, semisync rounds, the
#: static async fast drain, and the async walk (a staleness bound).
PATHS = {
    "sync": dict(mode="sync"),
    "semisync": dict(mode="semisync", participants=8),
    "async-fast": dict(mode="async", buffer_size=4),
    "async-walk": dict(mode="async", buffer_size=4, max_staleness=1),
}

#: A 2,000-client, 10-round fleet over cheap controllers: the report
#: count of perfbench's fleet-sweep at a fraction of its prepare cost.
LARGE = FleetSpec(
    n_clients=2000, rounds=10, controllers=("performant", "linear_pace"),
    archetypes=6, seed=0,
)

#: Bytes a 2,000-client, 10-round sync reports-mode composition of
#: ``LARGE`` retained under tracemalloc when every report was a
#: :class:`FleetReport` object (measured before the columns, CPython 3.11).
OBJECT_RETAINED_BYTES = 5.65 * 2**20


def smoke_digests() -> dict[str, str]:
    """sha256 of each smoke composition's ``to_dict()`` JSON, by mode."""
    return {
        mode: hashlib.sha256(
            json.dumps(
                run_fleet(dataclasses.replace(SMOKE, mode=mode), workers=1).to_dict(),
                sort_keys=True,
            ).encode("utf-8")
        ).hexdigest()
        for mode in SMOKE_MODES
    }


def _field_bits(report: FleetReport) -> tuple:
    """Every field with its exact type; floats by their bit pattern."""
    return tuple(
        (type(value), value.hex() if isinstance(value, float) else value)
        for value in dataclasses.astuple(report)
    )


@pytest.fixture(scope="module")
def large_fleet():
    return prepare_fleet(LARGE)


class TestColumnObjectIdentity:
    @pytest.mark.parametrize("chaos", [0.0, 0.3])
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_reports_equal_the_oracle_field_by_field(self, path, chaos):
        spec = FleetSpec(
            **BASE, **PATHS[path], chaos_fraction=chaos, chaos_seed=7
        )
        clients = prepare_fleet(spec)
        engine = compose_fleet(spec, clients)
        oracle = reference_compose_fleet(spec, clients)
        assert len(engine.rounds) == len(oracle.rounds) > 0
        for mine, theirs in zip(engine.rounds, oracle.rounds):
            assert mine.columns is not None and theirs.columns is None
            assert [_field_bits(r) for r in mine.reports] == [
                _field_bits(r) for r in theirs.reports
            ]
            assert mine == theirs
        if chaos:
            assert any(r.phase == "dropped" for c in clients for r in c.records)

    @pytest.mark.parametrize("mode", ["sync", "semisync"])
    def test_selector_free_rounds_share_one_participant_list(self, mode):
        spec = FleetSpec(**BASE, mode=mode)
        clients = prepare_fleet(spec)
        result = compose_fleet(spec, clients)
        shared = result.rounds[0].participants
        assert len(result.rounds) > 1 and len(shared) == spec.n_clients
        assert all(rnd.participants is shared for rnd in result.rounds)
        assert shared is result.rounds[0].columns.client_ids
        assert result.rounds == reference_compose_fleet(spec, clients).rounds

    def test_a_report_list_round_keeps_its_list(self):
        report = FleetReport("a", 0, 1.0, 0.5, 0.5, 2.0, False, weight=3.0)
        rnd = async_engine.FleetRound(0, 0.0, 1.0)
        rnd.reports.append(report)
        assert rnd.reports == [report] and rnd.reports[0] is report
        assert rnd.buffered_count() == 1 and rnd.total_energy == 2.0

    def test_from_reports_round_trips(self):
        reports = [
            FleetReport("b", 2, 3.5, 1.25, 0.0, 7.0, True, 0, 0.0, "straggler"),
            FleetReport("a", 0, -0.0, 0.1, 0.2, 0.3, False, 4, 0.5, "buffered"),
        ]
        columns = ReportColumns.from_reports(reports)
        assert [_field_bits(r) for r in columns.reports()] == [
            _field_bits(r) for r in reports
        ]


def test_smoke_result_matches_golden_digest():
    recorded = {
        mode: digest
        for digest, mode in (line.split() for line in GOLDEN.read_text().splitlines())
    }
    assert smoke_digests() == recorded, (
        "the smoke spec's FleetResult.to_dict() drifted; if the change is "
        "intentional, regenerate with tests/federated/golden/regen.py"
    )


class TestReportsModeCost:
    def test_scorecard_and_failure_accounting_build_no_report(
        self, large_fleet, monkeypatch
    ):
        results = [
            (spec, compose_fleet(spec, large_fleet))
            for spec in (
                dataclasses.replace(LARGE, mode="sync"),
                dataclasses.replace(LARGE, mode="semisync", participants=200),
                dataclasses.replace(LARGE, mode="async", buffer_size=200),
            )
        ]
        built = []
        construct = FleetReport.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(FleetReport, "__init__", counting)
        lost = reports = 0
        for spec, result in results:
            fleet_summary(spec, result)
            lost += (
                result.straggler_reports
                + result.cutoff_reports
                + result.staleness_drops
            )
            reports += sum(rnd.report_count() for rnd in result.rounds)
        assert built == []
        assert 0 < lost < reports  # the semisync cutoffs
        materialized = results[0][1].rounds[0].reports  # the counter counts
        assert len(built) == len(materialized) == 2000

    def test_sync_compose_retains_under_two_fifths_of_the_objects(
        self, large_fleet
    ):
        spec = dataclasses.replace(LARGE, mode="sync")
        compose_fleet(spec, large_fleet)  # warm caches and lazy imports
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = compose_fleet(spec, large_fleet)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(rnd.report_count() for rnd in result.rounds) == 20_000
        assert retained <= 0.4 * OBJECT_RETAINED_BYTES
