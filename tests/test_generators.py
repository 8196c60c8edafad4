"""Unit tests for repro.graphs.generators."""

import numpy as np
import pytest

from repro.graphs.dynamic import DynamicGraph
from repro.graphs.generators import (
    evolve_snapshot,
    generate_dynamic_graph,
    powerlaw_snapshot,
    random_features,
)


class TestPowerlawSnapshot:
    def test_exact_edge_count(self):
        snapshot = powerlaw_snapshot(100, 500, seed=0)
        assert snapshot.num_edges == 500
        assert snapshot.num_vertices == 100

    def test_no_self_loops(self):
        snapshot = powerlaw_snapshot(50, 300, seed=1)
        src, dst = snapshot.edge_arrays()
        assert not np.any(src == dst)

    def test_skewed_in_degree(self):
        snapshot = powerlaw_snapshot(500, 5000, skew=1.2, seed=2)
        degrees = np.sort(snapshot.in_degree())[::-1]
        # A power-law graph concentrates in-degree on a few hubs.
        top_share = degrees[:25].sum() / degrees.sum()
        assert top_share > 0.2

    def test_deterministic_with_seed(self):
        a = powerlaw_snapshot(60, 240, seed=7)
        b = powerlaw_snapshot(60, 240, seed=7)
        assert a == b

    def test_with_features(self):
        snapshot = powerlaw_snapshot(20, 40, feature_dim=5, seed=3,
                                     with_features=True)
        assert snapshot.features.shape == (20, 5)

    def test_rejects_impossible_density(self):
        with pytest.raises(ValueError):
            powerlaw_snapshot(3, 100, seed=0)

    def test_zero_edges(self):
        snapshot = powerlaw_snapshot(10, 0, seed=0)
        assert snapshot.num_edges == 0


class TestEvolveSnapshot:
    def test_zero_dissimilarity_is_identity(self, rng):
        base = powerlaw_snapshot(50, 200, seed=4)
        evolved = evolve_snapshot(base, 0.0, rng)
        assert evolved == base
        assert evolved.timestamp == base.timestamp + 1

    def test_rejects_bad_dissimilarity(self, rng):
        base = powerlaw_snapshot(10, 20, seed=4)
        with pytest.raises(ValueError):
            evolve_snapshot(base, 1.5, rng)

    def test_changes_roughly_target_fraction(self, rng):
        base = powerlaw_snapshot(400, 2000, seed=5)
        evolved = evolve_snapshot(base, 0.2, rng)
        changed_rows = DynamicGraph([base, evolved]).changed_vertices(1)
        changed = len(changed_rows) / base.num_vertices
        assert 0.1 <= changed <= 0.3

    def test_edge_count_roughly_stable(self, rng):
        base = powerlaw_snapshot(400, 2000, seed=6)
        evolved = evolve_snapshot(base, 0.3, rng)
        assert abs(evolved.num_edges - base.num_edges) <= 0.15 * base.num_edges

    def test_features_updated_for_changed_vertices(self, rng):
        base = powerlaw_snapshot(100, 300, feature_dim=4, seed=7,
                                 with_features=True)
        evolved = evolve_snapshot(base, 0.3, rng)
        assert evolved.features is not None
        assert np.any(evolved.features != base.features)


class TestGenerateDynamicGraph:
    def test_snapshot_count_and_dims(self):
        graph = generate_dynamic_graph(80, 320, 6, feature_dim=9, seed=8)
        assert graph.num_snapshots == 6
        assert graph.feature_dim == 9
        assert all(s.num_vertices == 80 for s in graph)

    def test_dissimilarity_lands_in_band(self):
        graph = generate_dynamic_graph(
            300, 1500, 8, dissimilarity=0.1, seed=9, dissimilarity_jitter=0.25
        )
        assert 0.05 <= graph.avg_dissimilarity() <= 0.15

    def test_jitter_varies_transitions(self):
        graph = generate_dynamic_graph(
            400, 1600, 10, dissimilarity=0.2, seed=10, dissimilarity_jitter=0.4
        )
        dissimilarities = [graph.dissimilarity(t) for t in range(1, 10)]
        assert np.std(dissimilarities) > 0.005

    def test_zero_jitter_is_steady(self):
        graph = generate_dynamic_graph(
            400, 1600, 6, dissimilarity=0.2, seed=11, dissimilarity_jitter=0.0
        )
        dissimilarities = [graph.dissimilarity(t) for t in range(1, 6)]
        assert max(dissimilarities) - min(dissimilarities) < 0.05

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_dynamic_graph(10, 20, 0)
        with pytest.raises(ValueError):
            generate_dynamic_graph(10, 20, 2, dissimilarity_jitter=1.5)

    def test_reproducible(self):
        a = generate_dynamic_graph(50, 200, 4, seed=12)
        b = generate_dynamic_graph(50, 200, 4, seed=12)
        for s_a, s_b in zip(a, b):
            assert s_a == s_b


class TestRandomFeatures:
    def test_shape_and_determinism(self):
        a = random_features(10, 4, seed=1)
        b = random_features(10, 4, seed=1)
        assert a.shape == (10, 4)
        np.testing.assert_array_equal(a, b)
