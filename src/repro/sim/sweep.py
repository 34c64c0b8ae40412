"""Multi-seed campaign sweeps with summary statistics.

The paper reports single runs per cell; this harness quantifies the
seed-to-seed spread — deadline draws, measurement noise and GP restarts all
move the improvement/regret numbers by up to ~1 percentage point — so that
comparisons between controllers or configurations can be made with error
bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.analysis.metrics import improvement_vs_performant, regret_vs_oracle
from repro.core.config import BoFLConfig
from repro.core.records import CampaignResult
from repro.errors import ConfigurationError
from repro.sim.executor import CampaignExecutor, expand_grid


@dataclass(frozen=True)
class SummaryStat:
    """Mean, standard deviation and extremes over sweep seeds."""

    mean: float
    std: float
    minimum: float
    maximum: float
    n: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "SummaryStat":
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            raise ConfigurationError("cannot summarize zero values")
        return cls(
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            n=int(arr.size),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4f} +/- {self.std:.4f} (n={self.n})"


@dataclass
class SweepResult:
    """Aggregated outcome of one (device, task, ratio) sweep."""

    device: str
    task: str
    deadline_ratio: float
    rounds: int
    seeds: tuple[int, ...]
    improvement: SummaryStat
    regret: SummaryStat
    missed_total: int
    campaigns: dict[int, dict[str, CampaignResult]]


def sweep_campaign(
    device: str,
    task: str,
    deadline_ratio: float,
    *,
    rounds: int = 40,
    seeds: Sequence[int] = (0, 1, 2),
    bofl_config: Optional[BoFLConfig] = None,
    use_cache: bool = True,
    workers: int = 1,
    executor: Optional[CampaignExecutor] = None,
) -> SweepResult:
    """Run BoFL + Performant + Oracle over several seeds and aggregate.

    Each seed draws its own deadline sequence and noise stream (still
    paired across the three controllers within the seed).

    The campaigns run through a :class:`CampaignExecutor`: ``executor``
    if given, else a new one with ``workers`` processes (``workers=1``
    computes in-process).  Each work unit derives its scenario seed
    exactly as a serial ``run_campaign`` does, so the aggregate is
    identical for any worker count.
    """
    # Normalize up front: a generator would pass the emptiness check, get
    # consumed by the grid expansion, and then record an empty seed tuple.
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if executor is None:
        executor = CampaignExecutor(workers=workers)

    specs = expand_grid(
        devices=(device,),
        tasks=(task,),
        controllers=("bofl", "performant", "oracle"),
        ratios=(deadline_ratio,),
        seeds=seeds,
        rounds=rounds,
        bofl_config=bofl_config,
    )
    report = executor.run(specs, use_cache=use_cache)
    campaigns: dict[int, dict[str, CampaignResult]] = {}
    for spec, result in zip(specs, report.results):
        campaigns.setdefault(spec.seed, {})[spec.controller] = result

    improvements: list[float] = []
    regrets: list[float] = []
    missed = 0
    for seed in seeds:
        per_seed = campaigns[seed]
        improvements.append(
            improvement_vs_performant(per_seed["bofl"], per_seed["performant"])
        )
        regrets.append(regret_vs_oracle(per_seed["bofl"], per_seed["oracle"]))
        missed += per_seed["bofl"].missed_rounds
    return SweepResult(
        device=device,
        task=task,
        deadline_ratio=deadline_ratio,
        rounds=rounds,
        seeds=tuple(seeds),
        improvement=SummaryStat.of(improvements),
        regret=SummaryStat.of(regrets),
        missed_total=missed,
        campaigns=campaigns,
    )
