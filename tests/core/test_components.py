"""Unit tests for BoFL's building blocks: config, observations, guardian,
measurement policy, exploitation planner, stopping rule, phases."""

import pytest

from repro.core.config import BoFLConfig
from repro.core.exploitation import ExploitationPlanner
from repro.core.guardian import DeadlineGuardian
from repro.core.observations import ObservationStore
from repro.core.phases import Phase, PhaseTransition
from repro.core.stopping import StoppingCondition
from repro.core.workload_assignment import MeasurementPolicy
from repro.errors import ConfigurationError, InfeasibleError
from repro.types import DvfsConfiguration, PerformanceSample, RoundBudget


class TestBoFLConfig:
    def test_paper_defaults(self):
        config = BoFLConfig()
        assert config.tau == 5.0
        assert config.initial_sample_fraction == 0.01
        assert config.min_explored_fraction == 0.03
        assert config.hv_improvement_threshold == 0.01
        assert config.max_batch_size == 10

    def test_initial_samples_scales_with_space(self):
        config = BoFLConfig()
        assert config.initial_samples(2100) == 21  # 1% of the AGX space
        assert config.initial_samples(936) == 9
        assert config.initial_samples(10) >= 2  # floor

    def test_min_explored(self):
        assert BoFLConfig().min_explored(2100) == 63  # 3%

    def test_validation(self):
        with pytest.raises(Exception):
            BoFLConfig(tau=0.0)
        with pytest.raises(Exception):
            BoFLConfig(max_batch_size=0)
        with pytest.raises(Exception):
            BoFLConfig(initial_sample_fraction=0.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            BoFLConfig().tau = 3.0  # type: ignore[misc]

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("max_batch_size", float("nan")),
            ("max_batch_size", float("inf")),
            ("max_batch_size", 2.5),
            ("max_batch_size", 0),
            ("fit_restarts", 1.5),
            ("fit_restarts", float("nan")),
            ("fit_restarts", -1),
            ("seed", 1.5),
            ("seed", float("-inf")),
            ("seed", -1),
            ("seed", True),
            ("seed", "0"),
        ],
    )
    def test_integer_fields_reject_non_whole_values(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            BoFLConfig(**{field: value})

    def test_integral_floats_normalize_to_int(self):
        config = BoFLConfig(max_batch_size=4.0, fit_restarts=1.0, seed=7.0)
        assert (config.max_batch_size, config.fit_restarts, config.seed) == (4, 1, 7)
        assert all(
            type(value) is int
            for value in (config.max_batch_size, config.fit_restarts, config.seed)
        )
        assert config == BoFLConfig(max_batch_size=4, fit_restarts=1, seed=7)

    def test_bad_fraction_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="initial_sample_fraction"):
            BoFLConfig(initial_sample_fraction=0.0)


def sample(cpu=1.0, latency=0.1, energy=2.0, jobs=1):
    return PerformanceSample(
        DvfsConfiguration(cpu, 1.0, 1.0), latency, energy, jobs, latency * jobs
    )


class TestObservationStore:
    def test_add_and_get(self):
        store = ObservationStore()
        merged = store.add(sample())
        assert len(store) == 1
        assert store.get(merged.config) is merged

    def test_duplicate_configs_merge(self):
        store = ObservationStore()
        store.add(sample(latency=0.1, jobs=1))
        merged = store.add(sample(latency=0.3, jobs=1))
        assert len(store) == 1
        assert merged.latency == pytest.approx(0.2)
        assert merged.jobs_measured == 2

    def test_get_missing_raises(self):
        with pytest.raises(ConfigurationError):
            ObservationStore().get(DvfsConfiguration(1, 1, 1))
        assert ObservationStore().maybe_get(DvfsConfiguration(1, 1, 1)) is None

    def test_pareto_set(self):
        store = ObservationStore()
        store.add(sample(cpu=1.0, latency=0.1, energy=3.0))
        store.add(sample(cpu=2.0, latency=0.3, energy=1.0))
        store.add(sample(cpu=3.0, latency=0.3, energy=3.5))  # dominated
        configs, values = store.pareto_set()
        assert len(configs) == 2
        assert values.shape == (2, 2)

    def test_fastest_and_worst(self):
        store = ObservationStore()
        store.add(sample(cpu=1.0, latency=0.1, energy=3.0))
        store.add(sample(cpu=2.0, latency=0.5, energy=1.0))
        assert store.fastest().latency == pytest.approx(0.1)
        assert store.worst_latency() == pytest.approx(0.5)
        assert store.worst_point() == (pytest.approx(0.5), pytest.approx(3.0))

    def test_empty_store_raises(self):
        store = ObservationStore()
        with pytest.raises(ConfigurationError):
            store.fastest()
        with pytest.raises(ConfigurationError):
            store.worst_point()


class TestDeadlineGuardian:
    def test_eqn2_exact_boundary(self):
        guardian = DeadlineGuardian(tau=5.0, safety_pad=0.0)
        guardian.update_t_xmax(0.2)
        # reserve = tau + worst latency (0.2). 10 jobs remaining at 0.2 = 2.0s.
        budget = RoundBudget(total_jobs=10, deadline=7.2 + 1e-6)
        assert guardian.allows_exploration(budget)
        tight = RoundBudget(total_jobs=10, deadline=7.2 - 1e-3)
        assert not guardian.allows_exploration(tight)

    def test_safety_pad_tightens_the_check(self):
        guardian = DeadlineGuardian(tau=5.0, safety_pad=0.05)
        guardian.update_t_xmax(0.2)
        marginal = RoundBudget(total_jobs=10, deadline=7.25)
        assert not guardian.allows_exploration(marginal)

    def test_xmax_job_observations_refine_estimate(self):
        guardian = DeadlineGuardian(tau=1.0)
        guardian.update_t_xmax(0.30)  # noisy window estimate
        for _ in range(20):
            guardian.observe_xmax_job(0.20)  # accurate per-job timings
        assert guardian.t_xmax < 0.21

    def test_accounts_progress(self):
        guardian = DeadlineGuardian(tau=1.0, safety_pad=0.0)
        guardian.update_t_xmax(0.1)
        budget = RoundBudget(total_jobs=100, deadline=12.0)
        assert guardian.allows_exploration(budget)
        budget.jobs_done = 90
        budget.elapsed = 11.5
        assert not guardian.allows_exploration(budget)

    def test_worst_latency_grows_reserve(self):
        guardian = DeadlineGuardian(tau=2.0)
        guardian.update_t_xmax(0.1)
        base_reserve = guardian.reserve
        guardian.observe_job_latency(1.5)
        assert guardian.reserve == pytest.approx(base_reserve - 0.1 + 1.5)

    def test_disabled_always_allows(self):
        guardian = DeadlineGuardian(tau=5.0, enabled=False)
        guardian.update_t_xmax(1.0)
        hopeless = RoundBudget(total_jobs=100, deadline=1.0)
        assert guardian.allows_exploration(hopeless)

    def test_allows_first_measurement_without_anchor(self):
        guardian = DeadlineGuardian(tau=5.0)
        assert guardian.allows_exploration(RoundBudget(total_jobs=5, deadline=1.0))

    def test_trigger_count(self):
        guardian = DeadlineGuardian(tau=5.0)
        guardian.update_t_xmax(0.5)
        guardian.allows_exploration(RoundBudget(total_jobs=100, deadline=1.0))
        assert guardian.trigger_count == 1


class TestMeasurementPolicy:
    def test_measures_for_at_least_tau(self, quiet_device):
        policy = MeasurementPolicy(tau=0.5)
        budget = RoundBudget(total_jobs=100, deadline=100.0)
        config = quiet_device.space.max_configuration()
        measured, results = policy.measure(quiet_device, config, budget)
        assert measured.duration >= 0.5
        assert len(results) == budget.jobs_done
        assert measured.jobs_measured == len(results)

    def test_stops_when_budget_exhausted(self, quiet_device):
        policy = MeasurementPolicy(tau=100.0)
        budget = RoundBudget(total_jobs=3, deadline=100.0)
        _, results = policy.measure(
            quiet_device, quiet_device.space.max_configuration(), budget
        )
        assert len(results) == 3
        assert budget.finished

    def test_fires_job_callback(self, quiet_device):
        policy = MeasurementPolicy(tau=0.2)
        budget = RoundBudget(total_jobs=50, deadline=100.0)
        calls = []
        policy.measure(
            quiet_device,
            quiet_device.space.max_configuration(),
            budget,
            on_job=lambda: calls.append(1),
        )
        assert len(calls) == budget.jobs_done


class TestExploitationPlanner:
    def _store(self):
        store = ObservationStore()
        store.add(sample(cpu=2.0, latency=0.2, energy=5.0))  # fast expensive
        store.add(sample(cpu=1.0, latency=0.5, energy=1.0))  # slow cheap
        return store

    def test_mixture_schedule(self):
        planner = ExploitationPlanner(safety_margin=0.0)
        schedule = planner.plan(self._store(), jobs=10, time_remaining=3.5)
        assert schedule.total_jobs == 10
        assert schedule.expected_latency <= 3.5 + 1e-9
        # fastest-first execution order
        latencies = [0.2 if e.config.cpu == 2.0 else 0.5 for e in schedule]
        assert latencies == sorted(latencies)

    def test_loose_deadline_all_cheap(self):
        planner = ExploitationPlanner(safety_margin=0.0)
        schedule = planner.plan(self._store(), jobs=10, time_remaining=50.0)
        assert len(schedule) == 1
        assert schedule.entries[0].config.cpu == 1.0

    def test_single_config_mode(self):
        planner = ExploitationPlanner(safety_margin=0.0, exact=False)
        schedule = planner.plan(self._store(), jobs=10, time_remaining=3.5)
        assert len(schedule) == 1  # greedy uses one configuration

    def test_infeasible_raises(self):
        planner = ExploitationPlanner(safety_margin=0.0)
        with pytest.raises(InfeasibleError):
            planner.plan(self._store(), jobs=10, time_remaining=1.0)

    def test_empty_store_raises(self):
        with pytest.raises(InfeasibleError):
            ExploitationPlanner().plan(ObservationStore(), 5, 10.0)

    @pytest.mark.parametrize("margin", [-0.1, 1.0, 1.5, float("nan")])
    def test_out_of_range_margin_is_a_configuration_error(self, margin):
        with pytest.raises(ConfigurationError) as raised:
            ExploitationPlanner(safety_margin=margin)
        assert not isinstance(raised.value, InfeasibleError)

    def test_safety_margin_tightens(self):
        relaxed = ExploitationPlanner(safety_margin=0.0).plan(
            self._store(), jobs=10, time_remaining=3.5
        )
        guarded = ExploitationPlanner(safety_margin=0.1).plan(
            self._store(), jobs=10, time_remaining=3.5
        )
        assert guarded.expected_latency <= relaxed.expected_latency + 1e-12
        assert guarded.expected_energy >= relaxed.expected_energy - 1e-12


class TestStoppingCondition:
    def test_requires_coverage_first(self):
        stop = StoppingCondition(min_explored=10, hv_improvement_threshold=0.01)
        stop.record_hypervolume(1.0)
        stop.record_hypervolume(1.0)
        assert not stop.should_stop(n_explored=5)
        assert stop.should_stop(n_explored=10)

    def test_requires_flat_hypervolume(self):
        stop = StoppingCondition(min_explored=5, hv_improvement_threshold=0.01)
        stop.record_hypervolume(1.0)
        stop.record_hypervolume(1.5)  # +50%
        assert not stop.should_stop(n_explored=100)
        stop.record_hypervolume(1.5005)  # +0.03%
        assert stop.should_stop(n_explored=100)

    def test_single_record_never_stops(self):
        stop = StoppingCondition(min_explored=0, hv_improvement_threshold=0.01)
        stop.record_hypervolume(1.0)
        assert not stop.should_stop(n_explored=100)

    def test_rejects_decreasing_hypervolume(self):
        stop = StoppingCondition(min_explored=0, hv_improvement_threshold=0.01)
        stop.record_hypervolume(1.0)
        with pytest.raises(ValueError):
            stop.record_hypervolume(0.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            StoppingCondition(0, 0.01).record_hypervolume(-1.0)

    def test_min_explored_is_a_whole_number(self):
        assert type(StoppingCondition(3.0, 0.01).min_explored) is int
        for bad in (-1, 2.5, True, float("nan")):
            with pytest.raises(ConfigurationError, match="min_explored"):
                StoppingCondition(bad, 0.01)


class TestPhases:
    def test_order(self):
        assert Phase.RANDOM_EXPLORATION.order == 1
        assert Phase.PARETO_CONSTRUCTION.order == 2
        assert Phase.EXPLOITATION.order == 3

    def test_transition_must_advance_one_step(self):
        PhaseTransition(0, Phase.RANDOM_EXPLORATION, Phase.PARETO_CONSTRUCTION)
        with pytest.raises(ValueError):
            PhaseTransition(0, Phase.RANDOM_EXPLORATION, Phase.EXPLOITATION)
        with pytest.raises(ValueError):
            PhaseTransition(0, Phase.PARETO_CONSTRUCTION, Phase.RANDOM_EXPLORATION)

    def test_reexploration_restart_is_the_only_backward_move(self):
        restart = PhaseTransition(0, Phase.EXPLOITATION, Phase.RANDOM_EXPLORATION)
        assert restart.is_restart
