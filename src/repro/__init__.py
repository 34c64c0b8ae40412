"""BoFL reproduction: Bayesian-optimized local training pace control for
energy-efficient federated learning (Guo et al., ACM/IFIP Middleware 2022).

The package is organized bottom-up:

* :mod:`repro.hardware` — simulated DVFS-capable edge boards (Jetson
  AGX/TX2) with calibrated latency/energy surfaces, sensors and actuators;
* :mod:`repro.workloads` — the paper's three NN training workloads (ViT,
  ResNet50, LSTM) plus extensions;
* :mod:`repro.bayesopt` — from-scratch multi-objective Bayesian
  optimization (Matérn-5/2 GPs, exact 2-D EHVI, Kriging-believer batches);
* :mod:`repro.ilp` — the exact Eqn. 1 schedule solver (a branch-and-bound
  specialized to the program's two rows);
* :mod:`repro.ml` / :mod:`repro.federated` — a numpy training stack and
  the FL server/client workflow;
* :mod:`repro.core` — the BoFL three-phase controller itself;
* :mod:`repro.baselines`, :mod:`repro.sim`, :mod:`repro.analysis`,
  :mod:`repro.experiments` — comparison targets, the campaign harness,
  metrics, and one driver per paper table/figure;
* :mod:`repro.obs` — the structured observability layer: typed events,
  counters/timers, JSONL traces and trace-replay of Table 3 / Fig. 13
  (disabled by default, see ``docs/observability.md``).

Quickstart::

    from repro import quick_campaign
    result = quick_campaign(task="vit", controller="bofl", deadline_ratio=2.0)
    print(result.training_energy)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro._version import __version__

if TYPE_CHECKING:
    from repro import obs
    from repro.clock import SimulationClock
    from repro.core.config import BoFLConfig
    from repro.core.controller import BoFLController
    from repro.core.records import CampaignResult, RoundRecord
    from repro.hardware.device import SimulatedDevice
    from repro.hardware.devices import get_device, jetson_agx, jetson_tx2
    from repro.sim.runner import run_campaign
    from repro.types import DvfsConfiguration, PerformanceSample
    from repro.workloads.zoo import get_workload


def quick_campaign(
    task: str = "vit",
    controller: str = "bofl",
    device: str = "agx",
    deadline_ratio: float = 2.0,
    rounds: int = 40,
    seed: int = 0,
) -> CampaignResult:
    """Run one controller campaign with sensible defaults.

    A convenience wrapper over :func:`repro.sim.run_campaign` for
    notebooks and the quickstart example.
    """
    from repro.sim import runner

    return runner.run_campaign(
        device, task, controller, deadline_ratio, rounds=rounds, seed=seed
    )


__all__ = [
    "BoFLConfig",
    "BoFLController",
    "CampaignResult",
    "DvfsConfiguration",
    "PerformanceSample",
    "RoundRecord",
    "SimulatedDevice",
    "SimulationClock",
    "__version__",
    "get_device",
    "get_workload",
    "jetson_agx",
    "jetson_tx2",
    "obs",
    "quick_campaign",
    "run_campaign",
]


#: Every ``import repro.x`` runs this file first, so the re-exports are
#: served lazily (see :mod:`repro._lazy`).
__getattr__, __dir__ = lazy_exports(__name__)
