"""Comparison targets for BoFL (§6.1 plus two extension baselines).

* :class:`PerformantController` — the paper's Performant design: every
  job at ``x_max`` (the default real-time governor behaviour).
* :class:`OracleController` — offline exhaustive profiling of the whole
  space, then pure exploitation every round; unachievable in practice but
  the energy lower bound BoFL's regret is measured against.
* :class:`RandomSearchController` — BoFL's skeleton with the MBO engine
  replaced by uniform random suggestions (the acquisition ablation).
* :class:`LinearPaceController` — a SmartPC-style controller that assumes
  training speed scales linearly with a single frequency knob; included to
  demonstrate why the paper rejects linear models on multi-axis DVFS
  (§2.1).
* :class:`OndemandGovernorController` — an OS-default utilization-driven
  governor; deadline-blind, so it shows why FL clients cannot just trust
  the kernel's frequency scaling.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.governor import OndemandGovernorController
    from repro.baselines.linear_pace import LinearPaceController
    from repro.baselines.oracle import OracleController
    from repro.baselines.performant import PerformantController
    from repro.baselines.random_only import RandomSearchController

__all__ = [
    "LinearPaceController",
    "OndemandGovernorController",
    "OracleController",
    "PerformantController",
    "RandomSearchController",
]

__getattr__, __dir__ = lazy_exports(__name__)
