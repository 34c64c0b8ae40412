"""Unit tests for the hierarchical (edge) aggregation layer."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.federated.aggregation import FedAvg, TrimmedMeanAggregator
from repro.federated.hierarchy import (
    HierarchySpec,
    aggregate_probe,
    combine_hierarchical,
)
from repro.obs import runtime as obs


class TestHierarchySpec:
    def test_edge_of_is_modulo(self):
        spec = HierarchySpec(n_edges=4)
        assert [spec.edge_of(i) for i in range(9)] == [0, 1, 2, 3, 0, 1, 2, 3, 0]

    def test_single_edge_degenerates_to_flat_topology(self):
        spec = HierarchySpec(n_edges=1)
        assert all(spec.edge_of(i) == 0 for i in range(10))

    @pytest.mark.parametrize("n_edges", [0, -1])
    def test_rejects_non_positive_edges(self, n_edges):
        with pytest.raises(ConfigurationError, match="n_edges"):
            HierarchySpec(n_edges=n_edges)


class TestAggregateProbe:
    def test_weighted_mean(self):
        probe = aggregate_probe(FedAvg(), [0.0, 1.0], [1.0, 3.0])
        assert probe == pytest.approx(0.75)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError, match="zero probes"):
            aggregate_probe(FedAvg(), [], [])

    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(ConfigurationError, match="weights"):
            aggregate_probe(FedAvg(), [0.5, 0.6], [1.0])

    def test_rejects_negative_weights(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            aggregate_probe(FedAvg(), [0.5, 0.6], [1.0, -1.0])

    def test_rejects_zero_weight_sum(self):
        with pytest.raises(ConfigurationError, match="positive sum"):
            aggregate_probe(FedAvg(), [0.5, 0.6], [0.0, 0.0])

    def test_non_fedavg_uses_the_array_path(self):
        # The trimmed mean drops the extremes; a weighted mean would not.
        probe = aggregate_probe(
            TrimmedMeanAggregator(trim=1),
            [0.0, 0.4, 0.6, 1.0],
            [1.0, 1.0, 1.0, 1.0],
        )
        assert probe == pytest.approx(0.5)


class TestCombineHierarchical:
    def kwargs(self):
        return dict(t=1.0, round_index=0, version=1)

    def test_rejects_ragged_inputs(self):
        with pytest.raises(ConfigurationError, match="parallel"):
            combine_hierarchical(
                FedAvg(),
                HierarchySpec(n_edges=2),
                [0.5, 0.6],
                [1.0, 1.0],
                [0],
                **self.kwargs(),
            )

    def test_single_edge_matches_flat_mean(self):
        progresses, weights = [0.2, 0.5, 0.9], [1.0, 2.0, 3.0]
        combined = combine_hierarchical(
            FedAvg(),
            HierarchySpec(n_edges=1),
            progresses,
            weights,
            [0, 0, 0],
            **self.kwargs(),
        )
        assert combined == aggregate_probe(FedAvg(), progresses, weights)

    def test_two_stage_mean_is_the_reweighted_fold(self):
        # edge0: clients (0.2, w=1), (0.8, w=3); edge1: (0.6, w=2)
        combined = combine_hierarchical(
            FedAvg(),
            HierarchySpec(n_edges=2),
            [0.2, 0.8, 0.6],
            [1.0, 3.0, 2.0],
            [0, 0, 1],
            **self.kwargs(),
        )
        edge0 = (1.0 * 0.2 + 3.0 * 0.8) / 4.0
        expected = (4.0 * edge0 + 2.0 * 0.6) / 6.0
        assert combined == pytest.approx(expected)

    def test_two_stage_equals_flat_up_to_association(self):
        """With edge weight = summed cohort weight, the two-stage mean is
        algebraically the flat weighted mean; only the float association
        order differs (the bit-level divergence the differential suite
        pins down on real fleet numbers)."""
        progresses = [0.1, 0.27, 0.33, 0.9]
        weights = [1.0, 2.5, 0.5, 4.0]
        flat = aggregate_probe(FedAvg(), progresses, weights)
        edged = combine_hierarchical(
            FedAvg(),
            HierarchySpec(n_edges=2),
            progresses,
            weights,
            [0, 0, 0, 1],
            **self.kwargs(),
        )
        assert math.isclose(flat, edged, rel_tol=1e-12)

    def test_emits_edge_events_and_counters(self):
        with obs.session(deterministic=True) as session:
            combine_hierarchical(
                FedAvg(),
                HierarchySpec(n_edges=3),
                [0.2, 0.8, 0.6],
                [1.0, 3.0, 2.0],
                [2, 0, 2],
                **self.kwargs(),
            )
        kinds = [e.kind for e in session.log]
        assert kinds == [
            "hierarchy.edge_aggregate",
            "hierarchy.edge_aggregate",
            "hierarchy.aggregate",
        ]
        # Edges emit in ascending edge id with their cohort sizes.
        first, second, closing = list(session.log)
        assert first.payload["edge"] == 0
        assert first.payload["contributors"] == 1
        assert second.payload["edge"] == 2
        assert second.payload["contributors"] == 2
        assert closing.payload["edges"] == 2
        assert closing.payload["contributors"] == 3
        assert closing.payload["version"] == 1
        assert session.metrics.counters["hierarchy.aggregations"] == 1
        assert session.metrics.counters["hierarchy.edge_aggregations"] == 2

    def test_silent_when_obs_disabled(self):
        combined = combine_hierarchical(
            FedAvg(),
            HierarchySpec(n_edges=2),
            [0.2, 0.8],
            [1.0, 1.0],
            [0, 1],
            **self.kwargs(),
        )
        assert 0.2 <= combined <= 0.8
