"""Campaign grids behind each experiment driver.

A driver's ``run()`` consumes campaigns through the in-process memo, so
the cheapest way to parallelize an artifact is to know — declaratively —
which campaigns it will ask for and warm the cache through the
:class:`~repro.sim.executor.CampaignExecutor` first.  Each function here
mirrors the corresponding driver's defaults exactly: warming with a grid
then running the driver serially is result-identical to the serial run.

Drivers whose campaigns depend on internal config variations (the
ablations) are deliberately absent; they fall back to serial execution.
"""

from __future__ import annotations

from repro.sim.executor import CampaignSpec, expand_grid
from repro.sim.runner import CONTROLLER_NAMES

_TASKS = ("vit", "resnet50", "lstm")
_TRIO = ("bofl", "performant", "oracle")


def fig9_grid(
    ratio: float = 2.0, rounds: int = 40, seed: int = 0
) -> list[CampaignSpec]:
    """Figs. 9/10: the controller trio per task at one deadline ratio."""
    return expand_grid(
        devices=("agx",), tasks=_TASKS, controllers=_TRIO,
        ratios=(ratio,), seeds=(seed,), rounds=rounds,
    )


def fig10_grid(
    ratio: float = 4.0, rounds: int = 40, seed: int = 0
) -> list[CampaignSpec]:
    return fig9_grid(ratio=ratio, rounds=rounds, seed=seed)


def fig11_grid(
    ratio: float = 2.0, rounds: int = 40, seed: int = 0
) -> list[CampaignSpec]:
    """Fig. 11: BoFL's searched front vs the Oracle front per task."""
    return expand_grid(
        devices=("agx",), tasks=_TASKS, controllers=("bofl", "oracle"),
        ratios=(ratio,), seeds=(seed,), rounds=rounds,
    )


def tab3_grid(
    ratio: float = 2.0, rounds: int = 40, seed: int = 0
) -> list[CampaignSpec]:
    """Table 3: the BoFL exploration walkthrough per task."""
    return expand_grid(
        devices=("agx",), tasks=_TASKS, controllers=("bofl",),
        ratios=(ratio,), seeds=(seed,), rounds=rounds,
    )


def fig12_grid(rounds: int = 100, seed: int = 0) -> list[CampaignSpec]:
    """Fig. 12: the trio per task over the deadline-ratio sweep."""
    return expand_grid(
        devices=("agx",), tasks=_TASKS, controllers=_TRIO,
        ratios=(2.0, 2.5, 3.0, 3.5, 4.0), seeds=(seed,), rounds=rounds,
    )


def fig13_grid(
    ratio: float = 2.0, rounds: int = 100, seed: int = 0
) -> list[CampaignSpec]:
    """Fig. 13: BoFL campaigns on both devices (MBO overhead)."""
    return expand_grid(
        devices=("agx", "tx2"), tasks=_TASKS, controllers=("bofl",),
        ratios=(ratio,), seeds=(seed,), rounds=rounds,
    )


def ext_controllers_grid(
    ratio: float = 2.0, rounds: int = 40, seed: int = 0
) -> list[CampaignSpec]:
    """Extension scoreboard: every controller on agx/vit."""
    return expand_grid(
        devices=("agx",), tasks=("vit",), controllers=CONTROLLER_NAMES,
        ratios=(ratio,), seeds=(seed,), rounds=rounds,
    )


def ext_async_fleet_grid(
    ratio: float = 2.0, rounds: int = 6, seed: int = 0, clients: int = 36
) -> list[CampaignSpec]:
    """Async-fleet extension: every client's trace campaign.

    Archetype pooling means a 36-client fleet needs far fewer than 36
    distinct campaigns; the executor computes each distinct spec once,
    which is exactly the set :func:`prepare_fleet` will request.
    """
    from repro.experiments.ext_async_fleet import base_spec
    from repro.sim.fleet import build_fleet_clients, campaign_spec_for

    fleet = base_spec(clients=clients, rounds=rounds, ratio=ratio, seed=seed)
    return [campaign_spec_for(client, fleet) for client in build_fleet_clients(fleet)]


def ext_servertune_grid(
    ratio: float = 2.0, rounds: int = 6, seed: int = 0, clients: int = 24
) -> list[CampaignSpec]:
    """Server co-optimization extension: every configuration's trace set.

    Static variants share campaign specs across deadline ratios they have
    in common; adaptive variants key separately (the servertune spec
    rides on each client's campaign).  The executor computes each
    distinct spec once.
    """
    from repro.experiments.ext_servertune import base_spec, variant_specs
    from repro.sim.fleet import build_fleet_clients, campaign_spec_for

    base = base_spec(clients=clients, rounds=rounds, ratio=ratio, seed=seed)
    return [
        campaign_spec_for(client, variant)
        for variant in variant_specs(base).values()
        for client in build_fleet_clients(variant)
    ]


def ext_resilience_grid(
    ratio: float = 2.0, rounds: int = 30, seed: int = 0, preset: str = "mixed"
) -> list[CampaignSpec]:
    """Resilience ablation: fault-free baseline plus both recovery policies."""
    from repro.faults.recovery import NO_RECOVERY, RecoveryPolicy
    from repro.sim.chaos import preset_schedule

    schedule = preset_schedule(preset, seed, rounds)
    base = CampaignSpec(
        device="agx", task="vit", controller="bofl",
        deadline_ratio=ratio, rounds=rounds, seed=seed,
    )
    return [
        base,
        CampaignSpec(
            device="agx", task="vit", controller="bofl",
            deadline_ratio=ratio, rounds=rounds, seed=seed,
            fault_schedule=schedule, recovery_policy=RecoveryPolicy(),
        ),
        CampaignSpec(
            device="agx", task="vit", controller="bofl",
            deadline_ratio=ratio, rounds=rounds, seed=seed,
            fault_schedule=schedule, recovery_policy=NO_RECOVERY,
        ),
    ]
