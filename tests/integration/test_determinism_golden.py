"""Golden determinism tests.

The whole simulation is a pure function of its seeds — nothing reads the
wall clock or global RNG state — so exact values from a reference run are
pinned here (loose 1e-6 relative tolerance to allow for BLAS/platform
float-ordering differences).  If one of these moves, either determinism
broke or a behaviour change slipped in unannounced; both deserve a failing
test.
"""

import pytest

from repro.hardware import jetson_agx
from repro.sim import run_campaign
from repro.workloads import lstm

TOL = 1e-6


class TestGoldenValues:
    def test_performant_campaign_energy(self):
        result = run_campaign(
            "agx", "vit", "performant", 2.0, rounds=3, seed=0, use_cache=False
        )
        assert result.training_energy == pytest.approx(2609.299441311744, rel=TOL)
        assert result.records[0].elapsed == pytest.approx(37.19405616431607, rel=TOL)

    def test_oracle_campaign_energy(self):
        result = run_campaign(
            "agx", "resnet50", "oracle", 2.0, rounds=3, seed=0, use_cache=False
        )
        assert result.training_energy == pytest.approx(2459.8870999881697, rel=TOL)
        assert result.records[2].energy == pytest.approx(831.7923411184238, rel=TOL)

    def test_performance_surface_point(self):
        model = lstm().performance_model(jetson_agx())
        config = jetson_agx().space.at(10, 7, 3)
        assert model.latency(config) == pytest.approx(0.5266971391511506, rel=1e-12)
        assert model.energy(config) == pytest.approx(4.943272602223859, rel=1e-12)


class TestRunToRunStability:
    def test_fresh_runs_are_bit_identical(self):
        a = run_campaign("agx", "vit", "performant", 2.0, rounds=2, seed=4, use_cache=False)
        b = run_campaign("agx", "vit", "performant", 2.0, rounds=2, seed=4, use_cache=False)
        assert a.energy_series() == b.energy_series()
        assert a.deadline_series() == b.deadline_series()

    def test_bofl_runs_are_bit_identical(self):
        a = run_campaign("agx", "vit", "bofl", 2.0, rounds=5, seed=4, use_cache=False)
        b = run_campaign("agx", "vit", "bofl", 2.0, rounds=5, seed=4, use_cache=False)
        assert a.energy_series() == b.energy_series()
        assert [r.explored for r in a.records] == [r.explored for r in b.records]
