"""Federated-learning substrate: tasks, deadlines, clients, server.

Implements the standard FL workflow of the paper's Fig. 1 — check-in,
selection, configuration, on-device training, reporting, aggregation — with
the client-side training pace delegated to a pluggable controller
(:mod:`repro.core` provides BoFL; :mod:`repro.baselines` provides
Performant/Oracle and others).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.federated.task import (
        FLTaskSpec,
        cifar10_vit,
        imagenet_resnet50,
        imdb_lstm,
        paper_tasks,
    )
    from repro.federated.deadlines import (
        DeadlineSchedule,
        StaticDeadlines,
        UniformDeadlines,
    )
    from repro.federated.aggregation import FedAvg, TrimmedMeanAggregator
    from repro.federated.choices import FLEET_MODES
    from repro.federated.async_engine import (
        AsyncFederationEngine,
        FleetClient,
        FleetReport,
        FleetResult,
        FleetRound,
        staleness_weight,
    )
    from repro.federated.selection import (
        AllClientsSelector,
        EnergyAwareSelector,
        RandomSelector,
    )
    from repro.federated.client import FederatedClient
    from repro.federated.server import FederatedServer
    from repro.federated.transport import BandwidthEstimator, LinkModel
    from repro.federated.reporting import ReportingDeadlineAdapter

__all__ = [
    "AllClientsSelector",
    "AsyncFederationEngine",
    "BandwidthEstimator",
    "DeadlineSchedule",
    "EnergyAwareSelector",
    "FLEET_MODES",
    "FLTaskSpec",
    "FedAvg",
    "FederatedClient",
    "FederatedServer",
    "FleetClient",
    "FleetReport",
    "FleetResult",
    "FleetRound",
    "LinkModel",
    "staleness_weight",
    "RandomSelector",
    "ReportingDeadlineAdapter",
    "StaticDeadlines",
    "TrimmedMeanAggregator",
    "UniformDeadlines",
    "cifar10_vit",
    "imagenet_resnet50",
    "imdb_lstm",
    "paper_tasks",
]

__getattr__, __dir__ = lazy_exports(__name__)
