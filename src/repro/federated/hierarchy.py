"""Hierarchical (edge) aggregation: server-side work in O(edges), not O(clients).

"Cost-Effective Federated Learning Design" (PAPERS.md) argues that at
deployment scale the server must never touch every client per round; the
standard answer is a two-level topology: clients report to **edge
aggregators**, each edge pre-combines its cohort's updates into one
partial, and the server folds only the edge partials.  This module is
that layer for the fleet engine's progress-probe aggregation path:

* :class:`HierarchySpec` — the topology: ``n_edges`` aggregators, with
  client ``index % n_edges`` assigned to its edge.  The modulo assignment
  deliberately mirrors the fleet's archetype pooling (``index %
  archetypes``), so an edge's cohort is a representative slice of the
  population rather than a device-homogeneous silo.
* :func:`combine_hierarchical` — one commit under the topology: group the
  buffered reports by edge, FedAvg each edge's (progress, weight) pairs
  into an edge partial, then FedAvg the partials under the edges' summed
  weights.  Mathematically this is a reweighted two-stage mean — *not*
  bit-equal to the flat mean, which is why hierarchy is a new discipline
  and not a transparent optimization.  The engine's commit and the
  per-event reference loop under ``tests/`` both call **this one
  function**, so they stay byte-identical under hierarchy too.
* :func:`aggregate_probe` — the scalar FedAvg fast path of the engine's
  commit: replicates
  :meth:`repro.federated.aggregation.FedAvg.aggregate` on plain floats,
  bit-for-bit (same normalization expression, same left-to-right
  accumulation), without allocating one numpy array per client.

Every commit under hierarchy emits one ``hierarchy.edge_aggregate`` event
per contributing edge and a closing ``hierarchy.aggregate`` — O(edges)
trace volume, matching the server-side work.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.federated.aggregation import Aggregator, FedAvg
from repro.obs import runtime as obs


@dataclass(frozen=True)
class HierarchySpec:
    """A two-level aggregation topology: ``n_edges`` edge aggregators."""

    n_edges: int

    def __post_init__(self) -> None:
        if self.n_edges < 1:
            raise ConfigurationError(
                f"n_edges must be >= 1, got {self.n_edges}"
            )

    def edge_of(self, client_index: int) -> int:
        """The edge aggregator serving ``client_index``."""
        return client_index % self.n_edges


def aggregate_probe(
    aggregator: Aggregator,
    progresses: Sequence[float],
    weights: Sequence[float],
) -> float:
    """Combine scalar progress probes under ``aggregator``.

    For plain :class:`FedAvg` this is the allocation-free scalar
    replication of the array path: ``norm = w / w.sum()`` (numpy's exact
    normalization expression) followed by the same left-to-right
    ``sum()`` accumulation — np.float64 scalar arithmetic is IEEE-754
    identical to the shape-``(1,)`` array arithmetic it replaces.  Any
    other aggregator gets the real array call.
    """
    if not progresses:
        raise ConfigurationError("cannot aggregate zero probes")
    if type(aggregator) is FedAvg:
        weights_arr = np.asarray(list(weights), dtype=float)
        if weights_arr.size != len(progresses):
            raise ConfigurationError(
                f"got {len(progresses)} probes but {weights_arr.size} weights"
            )
        if np.any(weights_arr < 0) or weights_arr.sum() <= 0:
            raise ConfigurationError(
                "aggregation weights must be non-negative with a positive sum"
            )
        norm = weights_arr / weights_arr.sum()
        acc = 0.0
        for j, progress in enumerate(progresses):
            acc = acc + float(norm[j]) * progress
        return float(acc)
    updates = [[np.asarray([p], dtype=float)] for p in progresses]
    combined = aggregator.aggregate(updates, list(weights))
    return float(combined[0][0])


def combine_hierarchical(
    aggregator: Aggregator,
    hierarchy: HierarchySpec,
    progresses: Sequence[float],
    weights: Sequence[float],
    edges: Sequence[int],
    *,
    t: float,
    round_index: int,
    version: int,
) -> float:
    """One hierarchical commit: edge partials, then the server fold.

    ``progresses``/``weights``/``edges`` are parallel, in buffer order
    (the same order the flat commit would consume).  Edges fold their
    cohorts independently; the server folds the edge partials in
    ascending edge id under each edge's summed weight.  Emits the
    ``hierarchy.*`` events; the caller still emits ``fleet.aggregate``
    with the returned probe, so flat trace tooling keeps working.
    """
    if not (len(progresses) == len(weights) == len(edges)):
        raise ConfigurationError(
            "progresses, weights and edges must be parallel sequences"
        )
    grouped: dict[int, tuple[list[float], list[float]]] = {}
    for progress, weight, edge in zip(progresses, weights, edges):
        bucket = grouped.setdefault(edge, ([], []))
        bucket[0].append(progress)
        bucket[1].append(weight)
    edge_probes: list[float] = []
    edge_weights: list[float] = []
    emitting = obs.enabled()
    for edge in sorted(grouped):
        edge_progresses, cohort_weights = grouped[edge]
        probe = aggregate_probe(aggregator, edge_progresses, cohort_weights)
        weight_total = float(sum(cohort_weights))
        edge_probes.append(probe)
        edge_weights.append(weight_total)
        if emitting:
            obs.emit(
                "hierarchy.edge_aggregate",
                t=t,
                round=round_index,
                edge=edge,
                contributors=len(edge_progresses),
                weight_total=weight_total,
                probe=probe,
            )
    combined = aggregate_probe(aggregator, edge_probes, edge_weights)
    if emitting:
        obs.count("hierarchy.edge_aggregations", len(edge_probes))
        obs.emit(
            "hierarchy.aggregate",
            t=t,
            round=round_index,
            edges=len(edge_probes),
            contributors=len(progresses),
            probe=combined,
            version=version,
        )
        obs.count("hierarchy.aggregations")
    return combined
