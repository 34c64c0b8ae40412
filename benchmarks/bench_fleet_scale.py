"""Fleet-scale gates: the vectorized event engine's speed and parity bars.

Three hard thresholds back the million-client story:

* at 10k clients the vectorized drain beats the per-event reference loop
  (``tests/federated/reference_fleet.py``) by >= 2x on the same prepared
  traces while staying byte-identical;
* ``detail="stats"`` composes a 10k-client async campaign in well under a
  second per call (the regime where report materialization, not event
  resolution, dominates);
* the columnar trace container is measurably smaller than row-per-event
  JSONL for the same deterministic event stream;
* re-preparing the 10k-client fleet from a warm memo, or from a warm
  persistent cache with a fresh memo, costs under 20 % of the cold
  prepare: the executor resolves each of the dozen distinct campaigns
  once, so a warm prepare does no per-client copying.

CI's fleet-scale job runs this module plus the ``slow``-marked smokes in
``tests/sim/test_fleet_scale.py`` (10k/100k clients under wall-clock and
peak-RSS ceilings).
"""

import json
import time

import pytest

from repro.obs import runtime as obs
from repro.obs.columnar import write_trace
from repro.sim.cache import PersistentCampaignCache
from repro.sim.fleet import FleetSpec, compose_fleet, prepare_fleet
from repro.sim.runner import clear_campaign_cache
from tests.federated.reference_fleet import reference_compose_fleet

SCALE_SPEC = FleetSpec(
    n_clients=10_000, rounds=5, mode="async", buffer_size=1_000, seed=0
)

CACHE = {}


@pytest.fixture(scope="module")
def clients():
    if "clients" not in CACHE:
        CACHE["clients"] = prepare_fleet(SCALE_SPEC)
    return CACHE["clients"]


def test_vectorized_beats_reference_loop(benchmark, publish, clients):
    """>= 2x over the per-event reference loop at 10k clients, byte-identical."""
    t0 = time.perf_counter()
    reference = reference_compose_fleet(SCALE_SPEC, clients)
    reference_s = time.perf_counter() - t0

    result = benchmark(compose_fleet, SCALE_SPEC, clients)
    vectorized_s = benchmark.stats.stats.min
    speedup = reference_s / vectorized_s

    assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
        reference.to_dict(), sort_keys=True
    )
    publish(
        "fleet_scale",
        "\n".join(
            [
                "fleet scale (10k clients, async, buffer 1000)",
                f"  reference loop   {reference_s * 1e3:9.1f} ms",
                f"  vectorized       {vectorized_s * 1e3:9.1f} ms",
                f"  speedup          {speedup:9.1f} x",
            ]
        ),
    )
    assert speedup >= 2.0, f"vectorized only {speedup:.2f}x over the reference loop"


def test_stats_detail_latency(benchmark, clients):
    """The O(flushes)-materialization path stays under 1 s per compose."""
    result = benchmark(compose_fleet, SCALE_SPEC, clients, detail="stats")
    assert benchmark.stats.stats.min < 1.0
    assert all(r.stats is not None for r in result.rounds)
    assert not any(r.reports for r in result.rounds)


def test_columnar_trace_is_smaller(tmp_path, clients):
    """Columnar beats JSONL on bytes for the identical event stream."""
    spec = FleetSpec(n_clients=500, rounds=3, mode="async", buffer_size=50)
    small = prepare_fleet(spec)
    with obs.session(deterministic=True) as session:
        compose_fleet(spec, small)
    jsonl = write_trace(tmp_path / "trace.jsonl", session.log)
    columnar = write_trace(tmp_path / "trace.col", session.log)
    ratio = columnar.stat().st_size / jsonl.stat().st_size
    assert ratio < 0.75, f"columnar/jsonl size ratio {ratio:.2f}"


def test_warm_prepare_costs_a_lookup_per_campaign(tmp_path, publish):
    """A warm re-prepare takes < 20 % of the cold one, memo or disk."""
    cache = PersistentCampaignCache(tmp_path)

    def timed_prepare():
        t0 = time.perf_counter()
        clients = prepare_fleet(SCALE_SPEC, cache=cache)
        return clients, time.perf_counter() - t0

    clear_campaign_cache()
    try:
        cold, cold_s = timed_prepare()
        memo, memo_s = timed_prepare()
        clear_campaign_cache()
        disk, disk_s = timed_prepare()
    finally:
        clear_campaign_cache()
    publish(
        "fleet_prepare",
        "\n".join(
            [
                "fleet prepare (10k clients, async, 5 rounds)",
                f"  cold (computes)        {cold_s * 1e3:9.1f} ms",
                f"  warm memo              {memo_s * 1e3:9.1f} ms",
                f"  warm disk, fresh memo  {disk_s * 1e3:9.1f} ms",
            ]
        ),
    )
    distinct = len({id(c.records) for c in cold})
    assert len({id(c.records) for c in memo}) == distinct
    assert len({id(c.records) for c in disk}) == distinct
    assert memo_s < 0.2 * cold_s, f"warm-memo prepare {memo_s / cold_s:.0%} of cold"
    assert disk_s < 0.2 * cold_s, f"warm-disk prepare {disk_s / cold_s:.0%} of cold"
