"""Edge-path tests that don't fit the per-module suites."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.base import PaceController
from repro.errors import ConfigurationError
from repro.hardware import SimulatedDevice, ThermalModel
from repro.hardware.noise import NoiselessMeasurement
from repro.sim import make_controller
from repro.hardware.devices import jetson_agx
from repro.workloads import vit
from tests.conftest import build_tiny_spec, build_tiny_workload
from tests.ilp.reference_milp import IntegerProgram, LinearProgram


class TestIntegerProgramModel:
    def test_default_integrality_is_all_integer(self):
        ip = IntegerProgram(LinearProgram(c=[1.0, 2.0]))
        assert list(ip.integer) == [True, True]
        assert ip.n_vars == 2

    def test_rejects_flag_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            IntegerProgram(LinearProgram(c=[1.0, 2.0]), integer=[True])


class TestPaceControllerTemplate:
    def test_cannot_instantiate_abstract(self, quiet_device):
        with pytest.raises(TypeError):
            PaceController(quiet_device)  # type: ignore[abstract]

    def test_run_round_validates_before_dispatch(self, quiet_device):
        from repro.baselines import PerformantController

        controller = PerformantController(quiet_device)
        with pytest.raises(ConfigurationError):
            controller.run_round(jobs=0, deadline=1.0)
        with pytest.raises(ConfigurationError):
            controller.run_round(jobs=5, deadline=-1.0)
        assert controller.rounds_run == 0  # failed calls don't count


class TestMakeControllerOptions:
    def test_without_mbo_cost(self):
        device = SimulatedDevice(jetson_agx(), vit(), seed=0)
        controller = make_controller("bofl", device, with_mbo_cost=False)
        assert controller.mbo_cost is None

    def test_with_mbo_cost_default(self):
        device = SimulatedDevice(jetson_agx(), vit(), seed=0)
        controller = make_controller("bofl", device)
        assert controller.mbo_cost is not None


class TestDeviceThermalMeasurement:
    def test_measurement_reflects_throttled_latency(self):
        thermal = ThermalModel(
            r_th=2.0, tau_th=100.0, t_ambient=25.0,
            throttle_start=40.0, throttle_full=60.0, max_slowdown=1.5,
        )
        thermal.temperature = 70.0  # pre-heated: full throttle
        device = SimulatedDevice(
            build_tiny_spec(), build_tiny_workload(),
            noise=NoiselessMeasurement(), thermal=thermal, seed=0,
        )
        cold_latency = device.model.latency(device.space.max_configuration())
        sample, _ = device.measure_configuration(
            device.space.max_configuration(), min_duration=0.2
        )
        assert sample.latency > cold_latency * 1.2  # throttling visible

    def test_measure_configuration_respects_max_jobs_with_thermal(self):
        device = SimulatedDevice(
            build_tiny_spec(), build_tiny_workload(),
            thermal=ThermalModel(), seed=0,
        )
        _, results = device.measure_configuration(
            device.space.max_configuration(), min_duration=100.0, max_jobs=2
        )
        assert len(results) == 2


class TestCLICampaignBofl:
    def test_bofl_campaign_runs(self, capsys):
        code = main(
            [
                "campaign",
                "--controller", "bofl",
                "--task", "vit",
                "--rounds", "2",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "configs explored" in out

    def test_run_with_seed_flag(self, capsys):
        assert main(["run", "fig2", "--seed", "0"]) == 0
        assert "spread" in capsys.readouterr().out.lower()


class TestSparseMatrixPaths:
    def test_lp_without_constraints_is_trivial(self):
        from tests.ilp.reference_milp import solve_lp

        sol = solve_lp(LinearProgram(c=[2.0, 3.0]))
        assert sol.is_optimal
        assert sol.objective == pytest.approx(0.0)
        assert np.allclose(sol.x, 0.0)
