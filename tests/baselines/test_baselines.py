"""Behavioural tests for the four baseline controllers."""

import dataclasses

import pytest

from repro.baselines import (
    LinearPaceController,
    OracleController,
    PerformantController,
    RandomSearchController,
)
from repro.core import Phase
from repro.core.config import BoFLConfig
from repro.federated.deadlines import UniformDeadlines
from repro.hardware import SimulatedDevice
from tests.conftest import build_tiny_spec, build_tiny_workload

JOBS = 60


def device(seed=0):
    return SimulatedDevice(build_tiny_spec(), build_tiny_workload(), seed=seed)


def deadlines_for(dev, rounds, ratio=2.5, seed=7):
    t_min = dev.model.latency(dev.space.max_configuration()) * JOBS
    return UniformDeadlines(ratio).generate(t_min, rounds, seed)


class TestPerformant:
    def test_always_runs_at_x_max(self):
        dev = device()
        controller = PerformantController(dev)
        record = controller.run_round(JOBS, deadlines_for(dev, 1)[0])
        assert dev.current_configuration == dev.space.max_configuration()
        assert record.exploited_jobs == JOBS
        assert not record.missed

    def test_energy_matches_x_max_cost(self):
        dev = device()
        controller = PerformantController(dev)
        record = controller.run_round(JOBS, deadlines_for(dev, 1)[0])
        expected = dev.model.energy(dev.space.max_configuration()) * JOBS
        assert record.energy == pytest.approx(expected, rel=0.02)

    def test_never_misses_feasible_deadlines(self):
        dev = device()
        controller = PerformantController(dev)
        for deadline in deadlines_for(dev, 10, ratio=1.1):
            assert not controller.run_round(JOBS, deadline).missed


class TestOracle:
    def test_precomputes_true_front(self):
        controller = OracleController(device())
        front = controller.true_front
        assert front.shape[0] >= 3
        # front objective values must be mutually non-dominated
        for i in range(front.shape[0]):
            for j in range(front.shape[0]):
                if i != j:
                    assert not (
                        (front[j] <= front[i]).all() and (front[j] < front[i]).any()
                    )

    def test_beats_performant_under_slack(self):
        dev_a, dev_b = device(), device()
        oracle = OracleController(dev_a)
        performant = PerformantController(dev_b)
        total_oracle = total_performant = 0.0
        for deadline in deadlines_for(dev_a, 8, ratio=3.0):
            total_oracle += oracle.run_round(JOBS, deadline).energy
            total_performant += performant.run_round(JOBS, deadline).energy
        assert total_oracle < 0.9 * total_performant

    def test_no_misses(self):
        dev = device()
        oracle = OracleController(dev)
        for deadline in deadlines_for(dev, 10, ratio=1.2):
            assert not oracle.run_round(JOBS, deadline).missed

    def test_is_lower_envelope_of_bofl(self, fast_config):
        from repro.core import BoFLController

        dev_a, dev_b = device(3), device(3)
        oracle = OracleController(dev_a)
        bofl = BoFLController(dev_b, fast_config)
        oracle_total = bofl_total = 0.0
        for deadline in deadlines_for(dev_a, 20, ratio=2.5):
            oracle_total += oracle.run_round(JOBS, deadline).energy
            bofl_total += bofl.run_round(JOBS, deadline).energy
        assert oracle_total <= bofl_total * 1.02  # BoFL cannot beat the oracle


class TestRandomSearch:
    def test_same_skeleton_different_suggestions(self, fast_config):
        controller = RandomSearchController(device(), fast_config)
        assert controller.config.mbo_enabled is False
        assert controller.config.tau == fast_config.tau

    def test_keeps_every_other_config_field(self):
        # The controller used to rebuild the config field by field and lost
        # the four drift/warm-start fields on the way.
        config = BoFLConfig(
            drift_reexploration=True,
            drift_threshold=0.3,
            drift_smoothing=0.5,
            warm_start_fits=False,
            seed=4,
        )
        controller = RandomSearchController(device(), config)
        assert controller.config == dataclasses.replace(config, mbo_enabled=False)

    def test_runs_through_all_phases(self, fast_config):
        dev = device()
        controller = RandomSearchController(dev, fast_config)
        for deadline in deadlines_for(dev, 20):
            controller.run_round(JOBS, deadline)
        assert controller.phase is Phase.EXPLOITATION

    def test_no_misses(self, fast_config):
        dev = device()
        controller = RandomSearchController(dev, fast_config)
        for deadline in deadlines_for(dev, 12, ratio=1.3):
            assert not controller.run_round(JOBS, deadline).missed


class TestLinearPace:
    def test_scaled_configuration_endpoints(self):
        dev = device()
        controller = LinearPaceController(dev)
        assert controller._scaled_configuration(1.0) == dev.space.max_configuration()
        assert controller._scaled_configuration(0.0) == dev.space.min_configuration()

    def test_saves_energy_with_slack(self):
        dev_a, dev_b = device(), device()
        linear = LinearPaceController(dev_a)
        performant = PerformantController(dev_b)
        linear_total = performant_total = 0.0
        for deadline in deadlines_for(dev_a, 8, ratio=3.0):
            linear_total += linear.run_round(JOBS, deadline).energy
            performant_total += performant.run_round(JOBS, deadline).energy
        assert linear_total < performant_total

    def test_sprints_when_model_underestimates(self):
        dev = device()
        controller = LinearPaceController(dev)
        for deadline in deadlines_for(dev, 12, ratio=1.3):
            controller.run_round(JOBS, deadline)
        # the linear model is wrong on this surface, so catch-up sprints
        # must have happened at least once under tight deadlines
        assert controller.sprints >= 1

    def test_validates_headroom(self):
        with pytest.raises(ValueError):
            LinearPaceController(device(), headroom=1.0)
