"""Multi-objective Bayesian optimization, implemented from scratch.

The paper builds its MBO engine on the Trieste library (§5.2); this
subpackage reimplements the same ingredients on numpy/scipy so the whole
stack is self-contained:

* zero-mean Gaussian-process surrogates with the Matérn-5/2 kernel (§4.3,
  "MBO prior function"), fitted by maximizing the log marginal likelihood;
* Pareto dominance and exact 2-D hypervolume / hypervolume-improvement
  indicators (Eqns. 4-5);
* the exact 2-D Expected Hypervolume Improvement acquisition function
  (Eqn. 6), computable in closed form for independent per-objective GPs;
* sequential-greedy (Kriging believer) batch selection (§4.3, "Batch
  Selection Strategy");
* Sobol quasi-random sampling of the discrete configuration space for the
  safe random exploration phase (§4.2, "Sample selection").
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.bayesopt.acquisition import (
        expected_hypervolume_improvement,
        expected_improvement,
    )
    from repro.bayesopt.gp import GaussianProcess
    from repro.bayesopt.hypervolume import (
        hypervolume,
        hypervolume_2d,
        hypervolume_improvement_2d,
    )
    from repro.bayesopt.kernels import RBF, Kernel, Matern52
    from repro.bayesopt.optimizer import MultiObjectiveBayesianOptimizer
    from repro.bayesopt.parego import ParEGOSuggester, tchebycheff_scalarize
    from repro.bayesopt.pareto import crowding_distance, pareto_front, pareto_mask
    from repro.bayesopt.sampling import sobol_configurations, uniform_configurations

__all__ = [
    "GaussianProcess",
    "Kernel",
    "Matern52",
    "MultiObjectiveBayesianOptimizer",
    "RBF",
    "crowding_distance",
    "ParEGOSuggester",
    "expected_hypervolume_improvement",
    "expected_improvement",
    "hypervolume",
    "hypervolume_2d",
    "hypervolume_improvement_2d",
    "pareto_front",
    "pareto_mask",
    "sobol_configurations",
    "tchebycheff_scalarize",
    "uniform_configurations",
]

__getattr__, __dir__ = lazy_exports(__name__)
