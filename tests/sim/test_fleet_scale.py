"""Fleet-scale smokes: wall-clock and peak-RSS ceilings at 10k/100k clients.

These are the acceptance numbers for the vectorized engine — a 100k-client
async campaign must compose in well under two minutes inside 4 GiB — plus
a 1k-client byte-identity check against the per-event reference loop in
``tests/federated/reference_fleet.py``, one scale beyond the differential
matrix in ``tests/federated/test_vectorized_equivalence``.
Everything here is marked ``slow`` and excluded from tier-1 (``-m 'not
slow'`` in ``pyproject.toml``); CI's fleet-scale job and local deep runs
opt back in with ``-m slow``.
"""

import json
import resource
import sys
import time

import pytest

from repro.sim.fleet import FleetSpec, compose_fleet, fleet_summary, prepare_fleet
from tests.federated.reference_fleet import reference_compose_fleet

pytestmark = pytest.mark.slow


def peak_rss_bytes():
    """Process high-water RSS (``ru_maxrss`` is KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


GiB = 1024**3


def compose_timed(spec, *, detail="stats"):
    t0 = time.perf_counter()
    clients = prepare_fleet(spec)
    result = compose_fleet(spec, clients, detail=detail)
    return result, time.perf_counter() - t0


class TestScaleSmoke:
    def test_10k_clients_async(self):
        spec = FleetSpec(
            n_clients=10_000, rounds=5, mode="async", buffer_size=1_000
        )
        result, elapsed = compose_timed(spec)
        assert result.rounds
        assert all(r.stats is not None for r in result.rounds)
        assert result.total_energy > 0
        assert elapsed < 60.0
        assert peak_rss_bytes() < 2 * GiB

    def test_10k_clients_sync(self):
        spec = FleetSpec(n_clients=10_000, rounds=3, mode="sync")
        result, elapsed = compose_timed(spec)
        assert len(result.rounds) == 3
        assert all(r.stats.n_reports > 0 for r in result.rounds)
        assert elapsed < 60.0
        assert peak_rss_bytes() < 2 * GiB

    def test_100k_clients_async_campaign(self):
        """The headline acceptance number: 100k clients, <=120s, <4 GiB."""
        spec = FleetSpec(
            n_clients=100_000, rounds=5, mode="async", buffer_size=10_000
        )
        result, elapsed = compose_timed(spec)
        assert result.rounds
        total_reports = sum(r.stats.n_reports for r in result.rounds)
        assert total_reports >= 100_000  # every client contributed
        assert elapsed < 120.0
        assert peak_rss_bytes() < 4 * GiB
        # The summary pipeline holds at scale too.
        summary = fleet_summary(spec, result)
        assert summary["clients"] == 100_000


class TestScaleIdentity:
    def test_1k_differential_byte_identity(self):
        """reference == engine on the full result dict at 1k clients —
        the differential matrix's contract, one order of magnitude up."""
        spec = FleetSpec(
            n_clients=1_000,
            rounds=4,
            mode="async",
            buffer_size=100,
            chaos_fraction=0.3,
            chaos_seed=5,
            seed=29,
        )
        clients = prepare_fleet(spec)
        vectorized = compose_fleet(spec, clients)
        reference = reference_compose_fleet(spec, clients)
        assert json.dumps(vectorized.to_dict(), sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )

    def test_1k_hierarchical_differential(self):
        spec = FleetSpec(
            n_clients=1_000, rounds=3, mode="semisync", edges=32, seed=29
        )
        clients = prepare_fleet(spec)
        vectorized = compose_fleet(spec, clients)
        reference = reference_compose_fleet(spec, clients)
        assert vectorized.to_dict() == reference.to_dict()
