"""One driver per paper table/figure.

Every driver module exposes ``run(**params) -> dict`` (the experiment
payload, cached campaign results inside) and ``render(payload) -> str``
(the paper-style rows).  The registry maps experiment ids to drivers so
benchmarks, tests and the EXPERIMENTS.md generator share one source of
truth.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.registry import (
        EXPERIMENTS,
        get_experiment,
        warm_experiment_cache,
    )

__all__ = ["EXPERIMENTS", "get_experiment", "warm_experiment_cache"]

__getattr__, __dir__ = lazy_exports(__name__)
