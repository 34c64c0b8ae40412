"""Random-search ablation: BoFL's skeleton without the MBO engine.

Identical phase structure, guardian and exploitation to
:class:`~repro.core.controller.BoFLController`, but phase-2 suggestions
are uniform random draws instead of EHVI picks.  Comparing the two
isolates the value of the Bayesian acquisition (the paper's Table 3
observation that 18 of ViT's 20 Pareto points come from MBO suggestions).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.config import BoFLConfig
from repro.core.controller import BoFLController, MBOCostFn
from repro.hardware.device import SimulatedDevice


class RandomSearchController(BoFLController):
    """Explore-then-exploit with uniform random exploration throughout."""

    name = "random_search"

    def __init__(
        self,
        device: SimulatedDevice,
        config: Optional[BoFLConfig] = None,
        mbo_cost: Optional[MBOCostFn] = None,
    ) -> None:
        base = config if config is not None else BoFLConfig()
        super().__init__(device, dataclasses.replace(base, mbo_enabled=False), mbo_cost)
