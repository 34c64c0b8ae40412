"""``repro.faults`` — deterministic fault injection and resilience machinery.

The paper evaluates BoFL on healthy boards; this package supplies the
disruption its explore-then-exploit design actually faces in the field —
thermal trips invalidating cold profiles, power-sensor outages corrupting
measurement windows, links stalling mid-upload, clients vanishing
mid-round — as *seeded, simulated-clock-driven* faults, plus the recovery
machinery those faults exercise:

* :mod:`repro.faults.schedule` — declarative :class:`FaultSpec` /
  :class:`FaultSchedule` (fully derived from a seed, hashable, and part of
  the campaign cache key);
* :mod:`repro.faults.injectors` — the per-round arming layer translating
  active fault windows into device overlays and obs events;
* :mod:`repro.faults.recovery` — :class:`RecoveryPolicy` (checkpoint
  cadence, restore-on-corruption, guardian escalation) and the
  :class:`RecoveryLog` bookkeeping;
* :mod:`repro.faults.engine` — :class:`ChaosRoundEngine`, the round loop
  gluing injection and recovery around any pace controller;
* :mod:`repro.faults.metrics` — :class:`ResilienceMetrics` (deadline-miss
  rate, energy regret vs the fault-free twin, recovery rounds).

Campaign-level orchestration (presets, the ``repro chaos`` CLI backend,
parallel execution through the executor/cache) lives one layer up in
:mod:`repro.sim.chaos` so this package never imports the sim harness.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.engine import ChaosRoundEngine
    from repro.faults.injectors import FaultInjector, RoundFaults
    from repro.faults.metrics import ResilienceMetrics
    from repro.faults.recovery import RecoveryLog, RecoveryPolicy
    from repro.faults.schedule import (
        FAULT_KINDS,
        FaultSchedule,
        FaultSpec,
    )

__all__ = [
    "FAULT_KINDS",
    "ChaosRoundEngine",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "RecoveryLog",
    "RecoveryPolicy",
    "ResilienceMetrics",
    "RoundFaults",
]

__getattr__, __dir__ = lazy_exports(__name__)
