"""Tests for the exact redundancy-free engine, including the core
equivalence property: incremental inference == full recompute."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.dynamic import DynamicGraph
from repro.graphs.generators import generate_dynamic_graph
from repro.models.dgnn import DGNNModel
from repro.models.incremental import IncrementalDGNN
from tests.test_properties import row_swaps


def _assert_equivalent(model, graph, atol=1e-10):
    full = model.run(graph)
    engine = IncrementalDGNN(model)
    incremental = engine.run(graph)
    for t in range(graph.num_snapshots):
        np.testing.assert_allclose(
            incremental.embeddings[t], full.embeddings[t], atol=atol
        )
        np.testing.assert_allclose(
            incremental.hidden[t], full.hidden[t], atol=atol
        )
    return engine


class TestEquivalence:
    def test_small_graph(self, small_graph):
        model = DGNNModel.create(6, [8, 4], 5, seed=0)
        _assert_equivalent(model, small_graph)

    def test_single_layer(self, small_graph):
        model = DGNNModel.create(6, [4], 3, seed=1)
        _assert_equivalent(model, small_graph)

    def test_three_layers(self, small_graph):
        model = DGNNModel.create(6, [8, 8, 4], 5, seed=2)
        _assert_equivalent(model, small_graph)

    def test_gru_variant(self, small_graph):
        model = DGNNModel.create(6, [8, 4], 5, rnn_kind="gru", seed=3)
        _assert_equivalent(model, small_graph)

    def test_high_dissimilarity(self):
        graph = generate_dynamic_graph(
            50, 200, 4, dissimilarity=0.6, feature_dim=5, seed=4,
            with_features=True,
        )
        model = DGNNModel.create(5, [6, 6], 4, seed=5)
        _assert_equivalent(model, graph)

    def test_zero_dissimilarity(self):
        graph = generate_dynamic_graph(
            50, 200, 4, dissimilarity=0.0, feature_dim=5, seed=6,
            with_features=True,
        )
        model = DGNNModel.create(5, [6], 4, seed=7)
        engine = _assert_equivalent(model, graph)
        # Nothing changed, so nothing after t=0 is recomputed.
        assert all(
            count == 0
            for per_layer in engine.stats.recomputed_rows[1:]
            for count in per_layer
        )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        dissimilarity=st.floats(0.0, 0.8),
        layers=st.integers(1, 3),
        snapshots=st.integers(2, 5),
        data=st.data(),
    )
    def test_property_incremental_equals_full(
        self, seed, dissimilarity, layers, snapshots, data
    ):
        generated = generate_dynamic_graph(
            25,
            90,
            snapshots,
            dissimilarity=dissimilarity,
            feature_dim=4,
            seed=seed,
            with_features=True,
        )
        # A last transition that only swaps two sources of one row.
        swapped = data.draw(row_swaps(generated[-1]))
        graph = DynamicGraph(list(generated) + [swapped])
        model = DGNNModel.create(4, [5] * layers, 4, seed=seed)
        _assert_equivalent(model, graph)


class TestStats:
    def test_stats_shape(self, small_graph):
        model = DGNNModel.create(6, [8, 4], 5, seed=8)
        engine = IncrementalDGNN(model)
        engine.run(small_graph)
        stats = engine.stats
        assert len(stats.recomputed_rows) == small_graph.num_snapshots
        assert all(len(p) == 2 for p in stats.recomputed_rows)
        assert stats.changed_seeds[0] == small_graph[0].num_vertices

    def test_reuse_fraction_bounds(self, small_graph):
        model = DGNNModel.create(6, [8, 4], 5, seed=9)
        engine = IncrementalDGNN(model)
        engine.run(small_graph)
        assert 0.0 <= engine.stats.reuse_fraction() < 1.0

    def test_more_reuse_with_lower_dissimilarity(self):
        model = DGNNModel.create(4, [5, 5], 4, seed=10)
        fractions = []
        for dis in (0.05, 0.5):
            graph = generate_dynamic_graph(
                60, 200, 5, dissimilarity=dis, feature_dim=4, seed=11,
                with_features=True,
            )
            engine = IncrementalDGNN(model)
            engine.run(graph)
            fractions.append(engine.stats.reuse_fraction())
        assert fractions[0] > fractions[1]

    def test_affected_sets_grow_with_depth(self, small_graph):
        model = DGNNModel.create(6, [8, 8, 4], 5, seed=12)
        engine = IncrementalDGNN(model)
        engine.run(small_graph)
        for per_layer in engine.stats.recomputed_rows[1:]:
            assert per_layer[0] <= per_layer[1] <= per_layer[2]

    def test_rejects_varying_vertex_counts(self):
        from repro.graphs.dynamic import DynamicGraph
        from repro.graphs.snapshot import GraphSnapshot

        graph = DynamicGraph(
            [
                GraphSnapshot.from_edges(4, [(0, 1)], feature_dim=3),
                GraphSnapshot.from_edges(5, [(0, 1)], feature_dim=3),
            ]
        )
        model = DGNNModel.create(3, [4], 4, seed=13)
        with pytest.raises(ValueError):
            IncrementalDGNN(model).run(graph)
