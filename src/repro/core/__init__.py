"""BoFL — the paper's contribution: a three-phase local pace controller.

The controller runs on the FL client and decides, job by job, which DVFS
configuration to train under:

1. **Safe random exploration** (§4.2) — measure Sobol-sampled starting
   points for at least ``tau`` seconds each, guarded by Eqn. 2 so no round
   deadline is ever missed; exploit observed configurations once the
   starting points are exhausted.
2. **Pareto front construction** (§4.3) — between rounds, refit the
   latency/energy GPs and pick an EHVI-greedy batch of configurations to
   try next round; stop once enough of the space is explored and the
   hypervolume stops improving.
3. **Exploitation** (§4.4) — for every remaining round, solve the Eqn. 1
   schedule ILP over the observed Pareto set and execute the plan.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.base import PaceController
    from repro.core.config import BoFLConfig
    from repro.core.controller import BoFLController
    from repro.core.exploitation import ExploitationPlanner
    from repro.core.guardian import DeadlineGuardian
    from repro.core.observations import ObservationStore
    from repro.core.phases import Phase, PhaseTransition
    from repro.core.records import MBOReport, RoundRecord
    from repro.core.stopping import StoppingCondition
    from repro.core.workload_assignment import MeasurementPolicy

__all__ = [
    "BoFLConfig",
    "BoFLController",
    "DeadlineGuardian",
    "ExploitationPlanner",
    "MBOReport",
    "MeasurementPolicy",
    "ObservationStore",
    "PaceController",
    "Phase",
    "PhaseTransition",
    "RoundRecord",
    "StoppingCondition",
]

__getattr__, __dir__ = lazy_exports(__name__)
