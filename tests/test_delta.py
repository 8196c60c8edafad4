"""Unit tests for repro.graphs.delta (deltas + deletion-to-addition)."""

import numpy as np

from repro.graphs.delta import (
    SnapshotDelta,
    addition_only_schedule,
    apply_delta,
    common_core,
    snapshot_delta,
)
from repro.graphs.dynamic import DynamicGraph
from repro.graphs.generators import generate_dynamic_graph
from repro.graphs.snapshot import GraphSnapshot


def _snap(edges, n=5):
    return GraphSnapshot.from_edges(n, edges)


def _delta(added=(), removed=()):
    def columns(pairs):
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]

    return SnapshotDelta(*columns(added), *columns(removed))


class TestSnapshotDelta:
    def test_pure_addition(self):
        delta = snapshot_delta(_snap([(0, 1)]), _snap([(0, 1), (1, 2)]))
        assert delta.num_added == 1
        assert delta.num_removed == 0
        assert (delta.added_src[0], delta.added_dst[0]) == (1, 2)

    def test_pure_deletion(self):
        delta = snapshot_delta(_snap([(0, 1), (1, 2)]), _snap([(0, 1)]))
        assert delta.num_added == 0
        assert delta.num_removed == 1

    def test_mixed_changes(self):
        delta = snapshot_delta(_snap([(0, 1), (1, 2)]), _snap([(0, 1), (2, 3)]))
        assert delta.num_added == 1
        assert delta.num_removed == 1
        assert delta.num_changes == 2

    def test_identical_snapshots(self):
        snapshot = _snap([(0, 1), (1, 2)])
        delta = snapshot_delta(snapshot, snapshot)
        assert delta.num_changes == 0

    def test_touched_vertices_are_destinations(self):
        delta = snapshot_delta(_snap([(0, 1), (1, 2)]), _snap([(0, 1), (2, 3)]))
        np.testing.assert_array_equal(delta.touched_vertices(), [2, 3])

    def test_growing_vertex_space(self):
        delta = snapshot_delta(_snap([(0, 1)], n=2), _snap([(0, 1), (2, 3)], n=4))
        assert delta.num_added == 1
        assert delta.num_removed == 0


class TestApplyDelta:
    def test_inverse_of_snapshot_delta(self):
        prev = _snap([(0, 1), (1, 2), (2, 3)])
        cur = _snap([(0, 1), (2, 3), (3, 4), (4, 0)])
        rebuilt = apply_delta(prev, snapshot_delta(prev, cur))
        assert rebuilt.edge_set() == cur.edge_set()

    def test_redundant_changes_are_noops(self):
        prev = _snap([(0, 1)])
        delta = snapshot_delta(prev, _snap([(0, 1), (1, 2)]))
        # Re-adding a present edge / removing an absent one changes nothing.
        twice = apply_delta(apply_delta(prev, delta), delta)
        assert twice.edge_set() == {(0, 1), (1, 2)}

    def test_duplicate_keys_inside_delta(self):
        prev = _snap([(0, 1), (1, 2)])
        delta = _delta(
            added=[(3, 4), (3, 4), (0, 1)], removed=[(1, 2), (1, 2), (2, 2)]
        )
        assert apply_delta(prev, delta) == _snap([(0, 1), (3, 4)])

    def test_edge_both_added_and_removed_ends_present(self):
        prev = _snap([(0, 1)])
        delta = _delta(added=[(2, 3), (0, 1)], removed=[(0, 1), (2, 3)])
        assert apply_delta(prev, delta).edge_set() == {(0, 1), (2, 3)}

    def test_zero_vertex_prev(self):
        prev = GraphSnapshot.empty(0)
        assert apply_delta(prev, _delta()) == prev
        grown = apply_delta(prev, _delta(added=[(2, 0)], removed=[(1, 1)]))
        assert grown == GraphSnapshot.from_edges(3, [(2, 0)])

    def test_delta_grows_vertex_space(self):
        prev = _snap([(0, 1), (4, 2)])
        delta = _delta(added=[(7, 3), (1, 6), (0, 1)], removed=[(9, 9)])
        grown = apply_delta(prev, delta, timestamp=4)
        assert grown == GraphSnapshot.from_edges(
            10, [(0, 1), (4, 2), (7, 3), (1, 6)]
        )
        assert grown.timestamp == 4
        assert grown.indptr.dtype == grown.indices.dtype == np.int64

    def test_unsorted_delta_with_every_change_twice(self, rng):
        n, edges = 40, 150
        prev = GraphSnapshot.from_edge_arrays(
            n, rng.integers(0, n, edges), rng.integers(0, n, edges)
        )
        cur = GraphSnapshot.from_edge_arrays(
            n, rng.integers(0, n, edges), rng.integers(0, n, edges)
        )
        delta = snapshot_delta(prev, cur)
        add = rng.permutation(2 * delta.num_added)
        rem = rng.permutation(2 * delta.num_removed)

        def twice(column, order):
            return np.concatenate([column, column])[order]

        doubled = SnapshotDelta(
            twice(delta.added_src, add),
            twice(delta.added_dst, add),
            twice(delta.removed_src, rem),
            twice(delta.removed_dst, rem),
        )
        assert apply_delta(prev, doubled) == cur


class TestCommonCore:
    def test_core_is_intersection(self):
        prev = _snap([(0, 1), (1, 2), (2, 3)])
        cur = _snap([(0, 1), (2, 3), (3, 4)])
        core = common_core(prev, cur)
        assert core.edge_set() == {(0, 1), (2, 3)}

    def test_both_reachable_by_additions(self):
        prev = _snap([(0, 1), (1, 2)])
        cur = _snap([(0, 1), (2, 3)])
        core = common_core(prev, cur)
        assert core.edge_set() <= prev.edge_set()
        assert core.edge_set() <= cur.edge_set()

    def test_core_of_identical_snapshots(self):
        snapshot = _snap([(0, 1), (1, 2)])
        core = common_core(snapshot, snapshot)
        assert core.edge_set() == snapshot.edge_set()


class TestAdditionOnlySchedule:
    def test_schedule_counts(self):
        graph = DynamicGraph(
            [_snap([(0, 1), (1, 2)]), _snap([(0, 1), (2, 3)])]
        )
        steps = addition_only_schedule(graph)
        assert len(steps) == 1
        step = steps[0]
        assert step.timestamp == 1
        assert step.core_edges == 1
        assert step.edges_to_add == 1
        assert step.direct_deletions == 1
        assert step.avoided_deletions == 1

    def test_schedule_eliminates_all_deletions(self):
        graph = generate_dynamic_graph(100, 400, 5, dissimilarity=0.2, seed=2)
        for step in addition_only_schedule(graph):
            # Reconstructing from the core requires only additions.
            assert step.edges_to_add >= 0
            assert step.core_edges >= 0
            # Core + additions rebuilds the new snapshot exactly.
            assert step.core_edges + step.edges_to_add == graph[
                step.timestamp
            ].num_edges

    def test_single_snapshot_graph(self):
        graph = DynamicGraph([_snap([(0, 1)])])
        assert addition_only_schedule(graph) == []
