"""Hypothesis property suite for the structured-array event queue.

The vectorized engine's async drain rests on one claim:
:func:`repro.federated.eventqueue.resolve_pop_order` — a batch argsort
plus tie-run resolution — always reproduces the exact pop sequence of
the per-event ``(at, push_counter)`` heap, including every tie-break
(initial launches beat relaunches, initials order by client rank,
relaunches by their parent's pop position, and a child is never
poppable before its parent).  Rather than trust the derivation, this
suite drives both against each other on adversarially tie-heavy random
event batches, with :func:`reference_pop_order` as the literal heapq
oracle.
"""

import heapq
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated.aggregation import FedAvg
from repro.federated.async_engine import staleness_weight
from repro.federated.eventqueue import async_arrival_times, resolve_pop_order
from repro.federated.hierarchy import aggregate_probe


def reference_pop_order(at, offsets):
    """The literal heapq simulation of the per-event drain (test oracle).

    Pushes initial events in client order with counters ``0..n-1``, pops
    the ``(at, counter)`` minimum, and pushes each popped event's
    successor with the then-current counter — the reference fleet loop's
    event heap, minus all the composition.
    """
    heap = []
    counter = 0
    for i in range(offsets.shape[0] - 1):
        start, end = int(offsets[i]), int(offsets[i + 1])
        if start == end:
            continue
        heapq.heappush(heap, (float(at[start]), counter, start))
        counter += 1
    drained = []
    while heap:
        _, _, flat = heapq.heappop(heap)
        drained.append(flat)
        client = int(np.searchsorted(offsets, flat, side="right")) - 1
        if flat + 1 < int(offsets[client + 1]):
            heapq.heappush(heap, (float(at[flat + 1]), counter, flat + 1))
            counter += 1
    return drained


# -- strategies --------------------------------------------------------------

#: Per-client event *increments* on a tiny integer grid: cumulative sums
#: give nondecreasing per-client arrival chains (the shape real traces
#: have), and the small grid makes cross-client ties the norm, not the
#: exception — zero increments even create intra-client ties.
increments = st.lists(
    st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=6),
    min_size=1,
    max_size=8,
)


def arrays_from_increments(chains):
    """(at, offsets) from per-client increment lists."""
    offsets = np.zeros(len(chains) + 1, dtype=np.int64)
    ats = []
    for i, chain in enumerate(chains):
        offsets[i + 1] = offsets[i] + len(chain)
        ats.extend(np.cumsum(np.asarray(chain, dtype=float)).tolist())
    return np.asarray(ats, dtype=float), offsets


class _Arrays:
    """The minimal duck-typed FleetTraceArrays async_arrival_times reads."""

    def __init__(self, elapsed, upload, offsets):
        self.elapsed = np.asarray(elapsed, dtype=float)
        self.upload = np.asarray(upload, dtype=float)
        self.offsets = np.asarray(offsets, dtype=np.int64)

    @property
    def n_events(self):
        return int(self.offsets[-1])

    @property
    def n_clients(self):
        return len(self.offsets) - 1

    @property
    def lengths(self):
        return np.diff(self.offsets)


# -- drain order == heapq reference ------------------------------------------


class TestPopOrderOracle:
    @settings(max_examples=300, deadline=None)
    @given(increments)
    def test_matches_heapq_reference(self, chains):
        at, offsets = arrays_from_increments(chains)
        resolved = resolve_pop_order(at, offsets)
        assert resolved.tolist() == reference_pop_order(at, offsets)

    @settings(max_examples=300, deadline=None)
    @given(increments)
    def test_is_a_permutation(self, chains):
        at, offsets = arrays_from_increments(chains)
        resolved = resolve_pop_order(at, offsets)
        assert sorted(resolved.tolist()) == list(range(int(offsets[-1])))

    @settings(max_examples=200, deadline=None)
    @given(increments)
    def test_respects_parent_before_child(self, chains):
        """A client's events drain in local-round order, always."""
        at, offsets = arrays_from_increments(chains)
        pos = np.empty(int(offsets[-1]), dtype=np.int64)
        pos[resolve_pop_order(at, offsets)] = np.arange(int(offsets[-1]))
        for i in range(len(chains)):
            client_positions = pos[int(offsets[i]) : int(offsets[i + 1])]
            assert client_positions.tolist() == sorted(client_positions.tolist())

    @settings(max_examples=200, deadline=None)
    @given(increments)
    def test_pop_times_are_nondecreasing(self, chains):
        at, offsets = arrays_from_increments(chains)
        popped = at[resolve_pop_order(at, offsets)]
        assert np.all(np.diff(popped) >= 0)

    def test_all_ties_drain_in_client_order(self):
        """The fully degenerate batch: every event at t=0."""
        chains = [[0, 0, 0], [0, 0], [0, 0, 0, 0]]
        at, offsets = arrays_from_increments(chains)
        resolved = resolve_pop_order(at, offsets)
        assert resolved.tolist() == reference_pop_order(at, offsets)
        # Initial launches (flat 0, 3, 5) pop first, in client order.
        assert resolved.tolist()[:3] == [0, 3, 5]

    def test_empty_clients_are_skipped(self):
        chains = [[], [1, 1], [], [1]]
        at, offsets = arrays_from_increments(chains)
        assert resolve_pop_order(at, offsets).tolist() == reference_pop_order(
            at, offsets
        )


# -- arrival-time chaining ---------------------------------------------------


class TestArrivalTimes:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.floats(0.0, 100.0, allow_nan=False),
                    st.floats(0.0, 100.0, allow_nan=False),
                ),
                min_size=0,
                max_size=6,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_sequential_chaining(self, per_client):
        """at[k] = ((at[k-1] + elapsed_k) + upload_k), bit-exact."""
        offsets = np.zeros(len(per_client) + 1, dtype=np.int64)
        elapsed, upload = [], []
        expected = []
        for i, rounds in enumerate(per_client):
            offsets[i + 1] = offsets[i] + len(rounds)
            t = 0.0
            for e, u in rounds:
                elapsed.append(e)
                upload.append(u)
                t = (t + e) + u
                expected.append(t)
        arrays = _Arrays(elapsed, upload, offsets)
        chained = async_arrival_times(arrays)
        assert chained.tolist() == expected  # == : bitwise, not approx


# -- staleness-discount invariants -------------------------------------------


class TestStalenessWeightInvariants:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(0.0, 8.0, allow_nan=False),
    )
    def test_bounded_and_fresh_is_full(self, staleness, exponent):
        w = staleness_weight(staleness, exponent)
        assert 0.0 < w <= 1.0
        assert staleness_weight(0, exponent) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 8.0, allow_nan=False))
    def test_monotone_in_staleness(self, exponent):
        weights = [staleness_weight(s, exponent) for s in range(20)]
        assert weights == sorted(weights, reverse=True)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_zero_exponent_disables_discount(self, staleness):
        assert staleness_weight(staleness, 0.0) == 1.0


class TestAggregateProbeInvariants:
    pairs = st.lists(
        st.tuples(
            st.floats(0.0, 1.0, allow_nan=False),
            st.floats(0.001, 1000.0, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    )

    @settings(max_examples=200, deadline=None)
    @given(pairs)
    def test_scalar_fast_path_matches_array_aggregator(self, pairs):
        """The FedAvg scalar replication is bit-identical to the real
        array path the reference loop's commit uses."""
        progresses = [p for p, _ in pairs]
        weights = [w for _, w in pairs]
        probe = aggregate_probe(FedAvg(), progresses, weights)
        updates = [[np.asarray([p], dtype=float)] for p in progresses]
        combined = FedAvg().aggregate(updates, list(weights))
        assert probe == float(combined[0][0])  # bitwise

    @settings(max_examples=200, deadline=None)
    @given(pairs, st.randoms(use_true_random=False))
    def test_permutation_invariant_up_to_rounding(self, pairs, rnd):
        """Client order must not matter beyond float associativity."""
        progresses = [p for p, _ in pairs]
        weights = [w for _, w in pairs]
        probe = aggregate_probe(FedAvg(), progresses, weights)
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        permuted = aggregate_probe(
            FedAvg(), [p for p, _ in shuffled], [w for _, w in shuffled]
        )
        assert math.isclose(probe, permuted, rel_tol=1e-9, abs_tol=1e-12)
        # And the probe is a convex combination of the progresses.
        assert min(progresses) - 1e-9 <= probe <= max(progresses) + 1e-9


# -- cross-check: the oracle itself ------------------------------------------


class TestReferenceOracle:
    def test_reference_is_a_real_heap_drain(self):
        """Spot-check the oracle against a hand-simulated drain."""
        #              client0: 2@t2,t4   client1: 1@t2   client2: 2@t1,t3
        chains = [[2, 2], [2], [1, 2]]
        at, offsets = arrays_from_increments(chains)
        heap, counter = [], 0
        for i in range(3):
            if offsets[i] != offsets[i + 1]:
                heapq.heappush(heap, (at[offsets[i]], counter, int(offsets[i])))
                counter += 1
        drained = []
        while heap:
            _, _, flat = heapq.heappop(heap)
            drained.append(flat)
            client = int(np.searchsorted(offsets, flat, side="right")) - 1
            if flat + 1 < int(offsets[client + 1]):
                heapq.heappush(heap, (at[flat + 1], counter, flat + 1))
                counter += 1
        assert reference_pop_order(at, offsets) == drained
        assert resolve_pop_order(at, offsets).tolist() == drained
