"""Micro-benchmarks of the computational kernels behind the controller.

These are the operations whose cost the paper's Fig. 13 measures on real
boards: GP refits, batched EHVI suggestion, and the exploitation-phase
ILP.  The paper reports <20 ms per ILP solve on Gurobi; our from-scratch
exact solver must stay in that class on every deadline, not on average.
"""

import math
import time

import numpy as np
import pytest

from repro.bayesopt.gp import GaussianProcess
from repro.bayesopt.optimizer import MultiObjectiveBayesianOptimizer
from repro.bayesopt.pareto import pareto_mask
from repro.bayesopt.sampling import sobol_configurations
from repro.hardware.devices import jetson_agx
from repro.ilp.schedule import ScheduleProblem, solve_schedule
from repro.workloads.zoo import vit


#: Wall-clock of the same benchmarks on the pre-fast-path kernels
#: (recorded in EXPERIMENTS.md, "MBO kernel fast path"); the ratio gates
#: below keep the rank-1/pruned-argmax/cached-posterior speedups from
#: silently regressing.
PRE_FASTPATH_SUGGEST_SECONDS = 0.150
PRE_FASTPATH_CAMPAIGN_SECONDS = 1.78
SUGGEST_SPEEDUP_FLOOR = 5.0
CAMPAIGN_SPEEDUP_FLOOR = 3.0


@pytest.fixture(scope="module")
def agx_observations():
    spec = jetson_agx()
    model = vit().performance_model(spec)
    configs = sobol_configurations(spec.space, 60, seed=0)
    x = spec.space.normalize_many(configs)
    y = np.array([model.objectives(c) for c in configs])
    return spec, model, configs, x, y


def test_gp_fit_60_observations(benchmark, agx_observations):
    _, _, _, x, y = agx_observations

    def fit():
        gp = GaussianProcess()
        gp.fit(x, y[:, 0])
        return gp.log_marginal_likelihood()

    lml = benchmark(fit)
    assert np.isfinite(lml)


def test_gp_hyperparameter_optimization(benchmark, agx_observations):
    _, _, _, x, y = agx_observations

    def fit_and_tune():
        gp = GaussianProcess()
        gp.fit(x, y[:, 0])
        return gp.optimize_hyperparameters(np.random.default_rng(0), n_restarts=1)

    lml = benchmark.pedantic(fit_and_tune, rounds=3, iterations=1)
    assert np.isfinite(lml)


def test_mbo_suggestion_batch(benchmark, agx_observations):
    spec, model, configs, _, _ = agx_observations

    optimizer = MultiObjectiveBayesianOptimizer(spec.space, seed=0, fit_restarts=0)
    for config in configs:
        optimizer.add_observation(config, *model.objectives(config))
    optimizer.fit(optimize_hyperparameters=False)

    picks = benchmark.pedantic(
        lambda: optimizer.suggest(10), rounds=5, iterations=2
    )
    assert len(picks) == 10
    # The fast path (rank-1 extensions, pruned-but-exact argmax, cached
    # candidate posterior) must hold a 5x margin over the pre-fast-path
    # kernels; the first round pays the posterior build, the rest reuse
    # it.  Gate on the fastest round — the least contention-noisy stat.
    assert benchmark.stats["min"] < (
        PRE_FASTPATH_SUGGEST_SECONDS / SUGGEST_SPEEDUP_FLOOR
    )


def test_mbo_campaign_to_60_observations(benchmark, agx_observations):
    """Five fit+suggest+observe rounds from 10 sobol seeds to 60 points."""
    spec, model, configs, _, _ = agx_observations

    def campaign():
        optimizer = MultiObjectiveBayesianOptimizer(
            spec.space, seed=0, fit_restarts=1
        )
        for config in configs[:10]:
            optimizer.add_observation(config, *model.objectives(config))
        for _ in range(5):
            optimizer.fit()
            for config in optimizer.suggest(10):
                optimizer.add_observation(config, *model.objectives(config))
        return optimizer.n_observations

    n_observations = benchmark.pedantic(campaign, rounds=3, iterations=1)
    assert n_observations == 60
    # End-to-end (refits hit the warm-start path, every suggest is a cold
    # cache) the campaign must hold a 3x margin over the pre-fast-path run.
    assert benchmark.stats["min"] < (
        PRE_FASTPATH_CAMPAIGN_SECONDS / CAMPAIGN_SPEEDUP_FLOOR
    )


def _agx_vit_problem(model, ratio):
    """Eqn. 1 over the AGX/ViT Pareto front (K=74), 200 jobs, deadline ``ratio`` x fastest."""
    latencies, energies = model.profile_space()
    mask = pareto_mask(np.stack([latencies, energies], axis=1))
    deadline = float(latencies.min() * 200 * ratio)
    return ScheduleProblem(latencies[mask], energies[mask], jobs=200, deadline=deadline)


def test_exploitation_ilp_under_20ms(benchmark, agx_observations):
    """The paper's Gurobi solves Eqn. 1 'within 20ms'; so must we."""
    _, model, _, _, _ = agx_observations
    counts = benchmark(solve_schedule, _agx_vit_problem(model, 1.5))
    assert counts.sum() == 200
    assert benchmark.stats["mean"] < 0.020  # the paper's 20 ms bar


def test_exploitation_ilp_worst_deadline_under_20ms(agx_observations):
    """The 20 ms bar holds for the slowest of 100 deadlines, not just one.

    Deadlines sweep 1.01x to 3x the all-fastest time on the same front.
    Each deadline's solve time is the best of three, so a scheduler stall
    on a shared host does not read as a slow solve.
    """
    _, model, _, _, _ = agx_observations
    worst = 0.0
    for ratio in np.linspace(1.01, 3.0, 100):
        problem = _agx_vit_problem(model, ratio)
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            counts = solve_schedule(problem)
            best = min(best, time.perf_counter() - start)
        assert counts.sum() == 200
        worst = max(worst, best)
    assert worst < 0.020  # the paper's 20 ms bar


def test_full_space_profiling(benchmark, agx_observations):
    _, model, _, _, _ = agx_observations
    latencies, energies = benchmark(model.profile_space)
    assert latencies.size == 2100 and energies.size == 2100
