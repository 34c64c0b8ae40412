"""Experiment registry: id -> (run, render, description).

The single source of truth mapping the paper's tables/figures (plus the
repo's ablations) to executable drivers; used by the benchmark suite and
by tooling that regenerates EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import Optional

from repro.errors import ConfigurationError
from repro.experiments import grids
from repro.sim.executor import CampaignTiming, ProgressCallback
from repro.experiments import (
    ablations,
    ext_accuracy,
    ext_async_fleet,
    ext_controllers,
    ext_fleet,
    ext_resilience,
    ext_servertune,
    fig2_spread,
    fig3_gpu_sweep,
    fig4_cpu_sweep,
    fig5_hardware,
    fig9_energy,
    fig11_pareto,
    fig12_sensitivity,
    fig13_overhead,
    tab1_specs,
    tab2_tasks,
    tab3_walkthrough,
)


@dataclass(frozen=True)
class Experiment:
    """A registered paper artifact reproduction.

    ``grid`` (optional) enumerates the campaigns ``run`` will request,
    with the same keyword defaults; artifacts without one simply cannot be
    warmed in parallel and execute serially.
    """

    id: str
    description: str
    run: Callable[..., dict]
    render: Callable[[dict], str]
    grid: Optional[Callable[..., list]] = None


def _fig10_run(**kwargs: object) -> dict:
    kwargs.setdefault("ratio", 4.0)
    return fig9_energy.run(**kwargs)


EXPERIMENTS: dict[str, Experiment] = {
    exp.id: exp
    for exp in (
        Experiment(
            "fig2",
            "Motivation: latency/energy spread over the DVFS space",
            fig2_spread.run,
            fig2_spread.render,
        ),
        Experiment(
            "fig3",
            "ViT performance vs GPU frequency at two CPU clocks",
            fig3_gpu_sweep.run,
            fig3_gpu_sweep.render,
        ),
        Experiment(
            "fig4",
            "Three models' performance vs CPU frequency",
            fig4_cpu_sweep.run,
            fig4_cpu_sweep.render,
        ),
        Experiment(
            "fig5",
            "Normalized AGX vs TX2 performance at x_max",
            fig5_hardware.run,
            fig5_hardware.render,
        ),
        Experiment(
            "tab1",
            "Testbed hardware specifications",
            tab1_specs.run,
            tab1_specs.render,
        ),
        Experiment(
            "tab2",
            "FL task specifications with measured T_min",
            tab2_tasks.run,
            tab2_tasks.render,
        ),
        Experiment(
            "fig9",
            "Per-round energy, T_max/T_min = 2 (BoFL/Performant/Oracle)",
            fig9_energy.run,
            fig9_energy.render,
            grid=grids.fig9_grid,
        ),
        Experiment(
            "fig10",
            "Per-round energy, T_max/T_min = 4 (BoFL/Performant/Oracle)",
            _fig10_run,
            fig9_energy.render,
            grid=grids.fig10_grid,
        ),
        Experiment(
            "fig11",
            "BoFL searched Pareto front vs actual front",
            fig11_pareto.run,
            fig11_pareto.render,
            grid=grids.fig11_grid,
        ),
        Experiment(
            "tab3",
            "Explorations and Pareto points per round",
            tab3_walkthrough.run,
            tab3_walkthrough.render,
            grid=grids.tab3_grid,
        ),
        Experiment(
            "fig12",
            "Sensitivity to deadline length (improvement & regret)",
            fig12_sensitivity.run,
            fig12_sensitivity.render,
            grid=grids.fig12_grid,
        ),
        Experiment(
            "fig13",
            "MBO module overhead",
            fig13_overhead.run,
            fig13_overhead.render,
            grid=grids.fig13_grid,
        ),
        Experiment(
            "abl_guardian",
            "Ablation: deadline guardian on/off under tight deadlines",
            ablations.run_guardian,
            ablations.render_guardian,
        ),
        Experiment(
            "abl_acquisition",
            "Ablation: EHVI vs random exploration",
            ablations.run_acquisition,
            ablations.render_acquisition,
        ),
        Experiment(
            "abl_tau",
            "Ablation: measurement duration tau",
            ablations.run_tau,
            ablations.render_tau,
        ),
        Experiment(
            "abl_exploit",
            "Ablation: ILP mixture vs single-configuration exploitation",
            ablations.run_exploit,
            ablations.render_exploit,
        ),
        Experiment(
            "abl_parego",
            "Ablation: EHVI vs ParEGO vs random at equal budget",
            ablations.run_parego,
            ablations.render_parego,
        ),
        Experiment(
            "abl_thermal",
            "Extension: thermal throttling with drift re-exploration",
            ablations.run_thermal,
            ablations.render_thermal,
        ),
        Experiment(
            "ext_accuracy",
            "Extension: learning-trajectory parity under pace control",
            ext_accuracy.run,
            ext_accuracy.render,
        ),
        Experiment(
            "ext_fleet",
            "Extension: fleet-level energy in a heterogeneous federation",
            ext_fleet.run,
            ext_fleet.render,
        ),
        Experiment(
            "ext_async_fleet",
            "Extension: sync vs semi-sync vs async federation disciplines",
            ext_async_fleet.run,
            ext_async_fleet.render,
            grid=grids.ext_async_fleet_grid,
        ),
        Experiment(
            "ext_controllers",
            "Extension: all-controller energy scoreboard",
            ext_controllers.run,
            ext_controllers.render,
            grid=grids.ext_controllers_grid,
        ),
        Experiment(
            "ext_resilience",
            "Extension: recovery policies under injected faults",
            ext_resilience.run,
            ext_resilience.render,
            grid=grids.ext_resilience_grid,
        ),
        Experiment(
            "ext_servertune",
            "Extension: adaptive server co-optimization vs static knobs",
            ext_servertune.run,
            ext_servertune.render,
            grid=grids.ext_servertune_grid,
        ),
    )
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look an experiment up by id (e.g. ``"fig9"``)."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        ) from None


def warm_experiment_cache(
    experiment_id: str,
    *,
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    **grid_kwargs: object,
) -> list[CampaignTiming]:
    """Precompute an artifact's campaigns in parallel.

    Expands the experiment's grid (keyword overrides mirror its ``run``
    signature: ``ratio``, ``rounds``, ``seed``), executes it through a
    :class:`~repro.sim.executor.CampaignExecutor`, and primes the runner's
    in-process cache so the subsequent serial ``run()`` is pure lookups.
    Returns the per-campaign timing records; experiments without a grid
    warm nothing and return an empty list.
    """
    from repro.sim.executor import CampaignExecutor

    experiment = get_experiment(experiment_id)
    if experiment.grid is None:
        return []
    specs = experiment.grid(**grid_kwargs)
    executor = CampaignExecutor(workers=workers, progress=progress)
    report = executor.run(specs)
    return report.timings
