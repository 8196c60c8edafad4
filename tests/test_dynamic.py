"""Unit tests for repro.graphs.dynamic."""

import numpy as np
import pytest

from repro.graphs.delta import snapshot_delta
from repro.graphs.dynamic import DynamicGraph
from repro.graphs.generators import generate_dynamic_graph, random_features
from repro.graphs.snapshot import GraphSnapshot
from repro.models.dgnn import DGNNModel
from repro.models.incremental import IncrementalDGNN


def _line(edges, n=4, feature_dim=2):
    return GraphSnapshot.from_edges(n, edges, feature_dim=feature_dim)


class TestContainer:
    def test_requires_snapshots(self):
        with pytest.raises(ValueError):
            DynamicGraph([])

    def test_requires_consistent_feature_dim(self):
        with pytest.raises(ValueError):
            DynamicGraph([_line([(0, 1)], feature_dim=2),
                          _line([(0, 1)], feature_dim=3)])

    def test_timestamps_are_normalized(self):
        graph = DynamicGraph([_line([(0, 1)]), _line([(1, 2)])])
        assert [s.timestamp for s in graph] == [0, 1]

    def test_len_getitem_iter(self, small_graph):
        assert len(small_graph) == small_graph.num_snapshots == 5
        assert small_graph[0] is small_graph.snapshots[0]
        assert sum(1 for _ in small_graph) == 5

    def test_subrange(self, small_graph):
        sub = small_graph.subrange(1, 4)
        assert sub.num_snapshots == 3
        assert sub[0].num_edges == small_graph[1].num_edges
        with pytest.raises(ValueError):
            small_graph.subrange(3, 2)


class TestChangeAnalysis:
    def test_first_snapshot_fully_changed(self):
        graph = DynamicGraph([_line([(0, 1)])])
        np.testing.assert_array_equal(graph.changed_vertices(0), [0, 1, 2, 3])
        assert graph.dissimilarity(0) == 1.0

    def test_identical_snapshots_unchanged(self):
        snapshot = _line([(0, 1), (1, 2)])
        graph = DynamicGraph([snapshot, snapshot])
        assert len(graph.changed_vertices(1)) == 0
        assert graph.dissimilarity(1) == 0.0

    def test_changed_vertices_detects_edge_insert(self):
        graph = DynamicGraph([_line([(0, 1)]), _line([(0, 1), (0, 2)])])
        np.testing.assert_array_equal(graph.changed_vertices(1), [2])

    def test_changed_vertices_detects_edge_delete(self):
        graph = DynamicGraph([_line([(0, 1), (0, 2)]), _line([(0, 1)])])
        np.testing.assert_array_equal(graph.changed_vertices(1), [2])

    def test_changed_vertices_detects_feature_change(self):
        base = _line([(0, 1)]).with_features(np.zeros((4, 2)))
        features = np.zeros((4, 2))
        features[3, 0] = 1.0
        changed = _line([(0, 1)]).with_features(features)
        graph = DynamicGraph([base, changed])
        np.testing.assert_array_equal(graph.changed_vertices(1), [3])

    def test_new_vertices_count_as_changed(self):
        graph = DynamicGraph(
            [_line([(0, 1)], n=4), _line([(0, 1)], n=6)]
        )
        np.testing.assert_array_equal(graph.changed_vertices(1), [4, 5])

    def test_changed_cache_is_consistent(self, small_graph):
        first = small_graph.changed_vertices(2)
        second = small_graph.changed_vertices(2)
        np.testing.assert_array_equal(first, second)

    def test_avg_dissimilarity_near_target(self):
        graph = generate_dynamic_graph(
            200, 800, 6, dissimilarity=0.2, feature_dim=4, seed=0
        )
        assert graph.avg_dissimilarity() == pytest.approx(0.2, abs=0.08)

    def test_single_snapshot_avg_dissimilarity(self):
        graph = DynamicGraph([_line([(0, 1)])])
        assert graph.avg_dissimilarity() == 0.0


class TestExactChangeDetection:
    """Row 0 goes from {3, 7} to {4, 6}: same degree, same sum of sources."""

    @staticmethod
    def _swap_graph():
        features = random_features(8, 4, seed=0)
        before = GraphSnapshot.from_edges(
            8, [(3, 0), (7, 0)], feature_dim=4, features=features
        )
        after = GraphSnapshot.from_edges(
            8, [(4, 0), (6, 0)], feature_dim=4, features=features
        )
        return DynamicGraph([before, after])

    def test_sum_preserving_swap_is_a_change(self):
        graph = self._swap_graph()
        np.testing.assert_array_equal(graph.changed_vertices(1), [0])
        assert graph.dissimilarity(1) == 0.125

    def test_incremental_equals_full_recompute(self):
        graph = self._swap_graph()
        model = DGNNModel.create(4, [5, 5], 4, seed=1)
        full = model.run(graph)
        incremental = IncrementalDGNN(model).run(graph)
        for t in range(graph.num_snapshots):
            np.testing.assert_allclose(
                incremental.embeddings[t], full.embeddings[t], atol=1e-10
            )


class TestTransitionDelta:
    def test_diffed_on_first_use(self):
        before, after = _line([(0, 1)]), _line([(0, 2), (1, 2)])
        delta = DynamicGraph([before, after]).transition_delta(1)
        expected = snapshot_delta(before, after)
        np.testing.assert_array_equal(delta.added_dst, expected.added_dst)
        np.testing.assert_array_equal(delta.removed_src, expected.removed_src)

    def test_no_transition_into_the_first_snapshot(self):
        graph = DynamicGraph([_line([(0, 1)]), _line([(0, 1)])])
        with pytest.raises(IndexError):
            graph.transition_delta(0)
        with pytest.raises(IndexError):
            graph.transition_delta(2)

    def test_supplied_delta_is_what_change_detection_reads(self):
        before, after = _line([(0, 1)]), _line([(0, 1), (0, 2)])
        graph = DynamicGraph([before, after])
        supplied = snapshot_delta(before, after)
        graph.supply_delta(1, supplied)
        assert graph.transition_delta(1) is supplied
        np.testing.assert_array_equal(graph.changed_vertices(1), [2])

    def test_supplied_delta_must_fit_the_edge_counts(self):
        before, after = _line([(0, 1)]), _line([(0, 1), (0, 2)])
        graph = DynamicGraph([before, after])
        with pytest.raises(ValueError):
            graph.supply_delta(1, snapshot_delta(after, before))
        with pytest.raises(ValueError):
            graph.supply_delta(0, snapshot_delta(before, after))

    def test_snapshots_are_restamped_not_copied(self):
        snapshot = _line([(0, 1), (1, 2)])
        snapshot.out_degree()
        graph = DynamicGraph([snapshot, snapshot])
        assert graph[0] is snapshot
        assert graph[1].timestamp == 1
        assert graph[1].indices is snapshot.indices
        assert graph[1].indptr is snapshot.indptr
        assert graph[1].out_degree() is snapshot.out_degree()


class TestAffectedSets:
    def test_affected_expands_changed(self):
        # 2 -> 3; a new in-edge at 2 invalidates 3 after one layer.
        before = _line([(0, 1), (2, 3)])
        after = _line([(0, 1), (0, 2), (2, 3)])  # vertex 2's in-row changes
        graph = DynamicGraph([before, after])
        np.testing.assert_array_equal(graph.changed_vertices(1), [2])
        np.testing.assert_array_equal(graph.affected_vertices(1, 1), [2, 3])

    def test_affected_fraction_bounds(self, small_graph):
        for t in range(small_graph.num_snapshots):
            fraction = small_graph.affected_fraction(t, 2)
            assert 0.0 <= fraction <= 1.0
            assert fraction >= small_graph.dissimilarity(t) - 1e-12


class TestStats:
    def test_stats_fields(self, small_graph):
        stats = small_graph.stats()
        assert stats.num_snapshots == 5
        assert stats.feature_dim == 6
        assert len(stats.num_vertices) == 5
        assert len(stats.dissimilarity) == 4
        assert stats.avg_vertices == pytest.approx(np.mean(stats.num_vertices))
        assert "T=5" in stats.summary()

    def test_max_vertices(self):
        graph = DynamicGraph([_line([(0, 1)], n=4), _line([(0, 1)], n=7)])
        assert graph.max_vertices == 7

    def test_repr(self, small_graph):
        assert "small" in repr(small_graph)
