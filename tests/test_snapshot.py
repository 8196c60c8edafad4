"""Unit tests for repro.graphs.snapshot."""

import numpy as np
import pytest

from repro.graphs.dynamic import DynamicGraph
from repro.graphs.snapshot import GraphSnapshot


class TestConstruction:
    def test_from_edges_builds_csr(self, tiny_snapshot):
        assert tiny_snapshot.num_vertices == 5
        assert tiny_snapshot.num_edges == 5
        np.testing.assert_array_equal(tiny_snapshot.in_neighbors(2), [0, 1, 3])
        np.testing.assert_array_equal(tiny_snapshot.in_neighbors(4), [2])
        np.testing.assert_array_equal(tiny_snapshot.in_neighbors(0), [])

    def test_from_edges_deduplicates(self):
        snapshot = GraphSnapshot.from_edges(3, [(0, 1), (0, 1), (0, 2)])
        assert snapshot.num_edges == 2

    def test_undirected_inserts_reverse_edges(self):
        snapshot = GraphSnapshot.from_edges(3, [(0, 1)], undirected=True)
        assert snapshot.has_edge(0, 1)
        assert snapshot.has_edge(1, 0)

    def test_empty(self):
        snapshot = GraphSnapshot.empty(4, feature_dim=7)
        assert snapshot.num_edges == 0
        assert snapshot.feature_dim == 7

    def test_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            GraphSnapshot(2, np.array([0, 1]), np.array([0]))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            GraphSnapshot.from_edges(2, [(0, 5)])

    def test_rejects_negative_vertices(self):
        with pytest.raises(ValueError):
            GraphSnapshot.empty(-1)

    def test_rejects_bad_feature_shape(self):
        with pytest.raises(ValueError):
            GraphSnapshot.from_edges(
                3, [(0, 1)], feature_dim=2, features=np.zeros((3, 5))
            )

    def test_with_features_round_trip(self, tiny_snapshot):
        features = np.arange(15, dtype=float).reshape(5, 3)
        carrying = tiny_snapshot.with_features(features)
        np.testing.assert_array_equal(carrying.features, features)
        assert tiny_snapshot.features is None


class TestStructureQueries:
    def test_in_degree(self, tiny_snapshot):
        np.testing.assert_array_equal(tiny_snapshot.in_degree(), [0, 1, 3, 0, 1])
        assert tiny_snapshot.in_degree(2) == 3

    def test_out_degree(self, tiny_snapshot):
        np.testing.assert_array_equal(tiny_snapshot.out_degree(), [2, 1, 1, 1, 0])
        assert tiny_snapshot.out_degree(0) == 2

    def test_has_edge(self, tiny_snapshot):
        assert tiny_snapshot.has_edge(0, 1)
        assert not tiny_snapshot.has_edge(1, 0)

    def test_edge_set_round_trip(self, tiny_snapshot):
        edges = tiny_snapshot.edge_set()
        rebuilt = GraphSnapshot.from_edges(5, edges, feature_dim=3)
        assert rebuilt == tiny_snapshot

    def test_iter_edges_matches_edge_arrays(self, tiny_snapshot):
        src, dst = tiny_snapshot.edge_arrays()
        assert list(tiny_snapshot.iter_edges()) == list(
            zip(src.tolist(), dst.tolist())
        )

    def test_changed_vertices_on_row_change(self, tiny_snapshot):
        modified = GraphSnapshot.from_edges(
            5, [(0, 1), (0, 2), (1, 2), (3, 2), (3, 4)], feature_dim=3
        )
        changed = DynamicGraph([tiny_snapshot, modified]).changed_vertices(1)
        assert 4 in changed  # row 4 changed
        assert not np.isin(changed, [0, 1, 2, 3]).any()

    def test_equality_ignores_features(self, tiny_snapshot):
        features = np.ones((5, 3))
        assert tiny_snapshot.with_features(features) == tiny_snapshot


class TestFrontier:
    def test_expand_frontier(self, line_snapshot):
        np.testing.assert_array_equal(
            line_snapshot.expand_frontier(np.array([0])), [1]
        )
        np.testing.assert_array_equal(
            line_snapshot.expand_frontier(np.array([0, 2])), [1, 3]
        )

    def test_expand_frontier_empty(self, line_snapshot):
        assert len(line_snapshot.expand_frontier(np.array([], dtype=np.int64))) == 0

    def test_k_hop_affected_grows_monotonically(self, line_snapshot):
        seeds = np.array([0])
        previous = 0
        for hops in range(4):
            affected = line_snapshot.k_hop_affected(seeds, hops)
            assert len(affected) >= previous
            previous = len(affected)
        np.testing.assert_array_equal(
            line_snapshot.k_hop_affected(seeds, 3), [0, 1, 2, 3]
        )

    def test_k_hop_zero_is_seeds(self, tiny_snapshot):
        np.testing.assert_array_equal(
            tiny_snapshot.k_hop_affected(np.array([3, 1]), 0), [1, 3]
        )


class TestLinearAlgebra:
    def test_normalized_adjacency_rows(self, tiny_snapshot):
        matrix = tiny_snapshot.normalized_adjacency()
        assert matrix.shape == (5, 5)
        assert matrix[1, 0] > 0  # edge 0 -> 1
        assert matrix[0, 1] == 0  # no reverse edge

    def test_aggregate_matches_dense(self, tiny_snapshot, rng):
        x = rng.standard_normal((5, 3))
        dense = tiny_snapshot.normalized_adjacency() @ x
        sparse = tiny_snapshot.aggregate(x)
        np.testing.assert_allclose(sparse, dense, atol=1e-12)

    def test_aggregate_without_self_loops(self, tiny_snapshot, rng):
        x = rng.standard_normal((5, 3))
        dense = tiny_snapshot.normalized_adjacency(add_self_loops=False) @ x
        sparse = tiny_snapshot.aggregate(x, add_self_loops=False)
        np.testing.assert_allclose(sparse, dense, atol=1e-12)

    def test_aggregate_rejects_wrong_rows(self, tiny_snapshot):
        with pytest.raises(ValueError):
            tiny_snapshot.aggregate(np.zeros((3, 3)))
