"""``repro.servertune`` — server-side co-optimization of global FL knobs.

BoFL tunes each client's local pace; this subsystem tunes the knobs the
*server* owns — round deadline slack, participation, async buffer
length, and the rounds budget — and searches their controller
hyperparameters with population-based training:

* :mod:`repro.servertune.controllers` — the :class:`ServerController`
  protocol plus the ``static`` / ``fedgpo`` / ``fedtune`` policies and
  the key-bearing :class:`ServerTuneSpec`;
* :mod:`repro.servertune.pbt` — the exploit/explore population driver
  on top of the campaign executor, with deterministic resume.

See ``docs/server_cooptimization.md`` for the controller API, the PBT
driver, and the determinism contract.

Import layering: ``controllers`` depends only on the error types, so the
federation engine and fleet layers may import it freely.  ``pbt`` sits
*above* the fleet layer; like every package here, this one re-exports
lazily (:mod:`repro._lazy`), so ``repro.sim.fleet ->
repro.servertune.controllers`` stays acyclic.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.servertune.controllers import (
        DEFAULT_KNOBS,
        SERVERTUNE_CONTROLLERS,
        FedGPOController,
        FedTuneController,
        RoundFeedback,
        ServerController,
        ServerKnobs,
        ServerTuneSpec,
        StaticKnobs,
        make_server_controller,
        normalize_servertune,
    )
    from repro.servertune.pbt import (
        PBT_CONTROLLERS,
        SEARCH_SPACE,
        MemberRecord,
        PBTResult,
        PBTSpec,
        PBTState,
        evolve,
        init_population,
        pareto_front,
        render_frontier_artifact,
        run_pbt,
    )

__all__ = [
    "DEFAULT_KNOBS",
    "SERVERTUNE_CONTROLLERS",
    "FedGPOController",
    "FedTuneController",
    "RoundFeedback",
    "ServerController",
    "ServerKnobs",
    "ServerTuneSpec",
    "StaticKnobs",
    "make_server_controller",
    "normalize_servertune",
    "MemberRecord",
    "PBTResult",
    "PBTSpec",
    "PBTState",
    "PBT_CONTROLLERS",
    "SEARCH_SPACE",
    "evolve",
    "init_population",
    "pareto_front",
    "render_frontier_artifact",
    "run_pbt",
]

__getattr__, __dir__ = lazy_exports(__name__)
