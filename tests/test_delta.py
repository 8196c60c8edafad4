"""Unit tests for repro.graphs.delta (deltas + deletion-to-addition)."""

import numpy as np

from repro.graphs.delta import (
    SnapshotDelta,
    addition_only_schedule,
    apply_delta,
    common_core,
    merge_deltas,
    snapshot_delta,
    split_delta,
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


class TestSplitMergeRoundtrip:
    def _random_transition(self, rng, n=40, edges=150):
        prev = GraphSnapshot.from_edge_arrays(
            n, rng.integers(0, n, edges), rng.integers(0, n, edges)
        )
        cur = GraphSnapshot.from_edge_arrays(
            n, rng.integers(0, n, edges), rng.integers(0, n, edges)
        )
        return prev, cur

    def test_split_is_disjoint_by_destination_owner(self, rng):
        prev, cur = self._random_transition(rng)
        delta = snapshot_delta(prev, cur)
        assignment = rng.integers(0, 3, prev.num_vertices)
        parts = split_delta(delta, assignment)
        assert sum(p.num_changes for p in parts) == delta.num_changes
        for part, piece in enumerate(parts):
            assert np.all(assignment[piece.added_dst] == part)
            assert np.all(assignment[piece.removed_dst] == part)

    def test_merge_recovers_exact_snapshot_in_any_order(self, rng):
        prev, cur = self._random_transition(rng)
        delta = snapshot_delta(prev, cur)
        assignment = rng.integers(0, 4, prev.num_vertices)
        parts = split_delta(delta, assignment)
        for order in (parts, parts[::-1]):
            merged = merge_deltas(list(order))
            rebuilt = apply_delta(prev, merged)
            assert rebuilt.edge_set() == cur.edge_set()
            np.testing.assert_array_equal(
                rebuilt.edge_arrays(), apply_delta(prev, delta).edge_arrays()
            )

    def test_merge_in_unsorted_order_with_repeats(self, rng):
        prev, cur = self._random_transition(rng)
        assignment = rng.integers(0, 3, prev.num_vertices)
        parts = split_delta(snapshot_delta(prev, cur), assignment)
        merged = merge_deltas(parts[::-1] + parts)  # every change twice
        add = rng.permutation(merged.num_added)
        rem = rng.permutation(merged.num_removed)
        shuffled = SnapshotDelta(
            merged.added_src[add],
            merged.added_dst[add],
            merged.removed_src[rem],
            merged.removed_dst[rem],
        )
        assert apply_delta(prev, shuffled) == cur

    def test_merge_of_nothing_is_the_empty_delta(self):
        merged = merge_deltas([])
        assert merged.num_changes == 0
        assert merged.added_src.dtype == np.int64

    def test_split_covers_trailing_empty_parts(self):
        delta = snapshot_delta(_snap([(0, 1)]), _snap([(0, 1), (1, 2)]))
        parts = split_delta(delta, np.array([0, 0, 0, 0, 0]))
        assert len(parts) == 1
        assert parts[0].num_added == 1


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
