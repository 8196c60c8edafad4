"""Property-based tests (hypothesis) on core data structures and invariants."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.algorithms import (
    ALGORITHMS,
    AlgorithmParams,
    SnapshotQuantities,
    layer_fractions,
)
from repro.core.comm_model import (
    CommunicationModel,
    ParallelFactors,
    WorkloadProfile,
)
from repro.core.plan import DGNNSpec
from repro.core.redundancy import RedundancyAnalysis
from repro.core.tiling import dram_access
from repro.ditile import DiTileAccelerator
from repro.graphs.continuous import ContinuousDynamicGraph, EdgeEvent, window_index
from repro.graphs.delta import common_core, snapshot_delta
from repro.graphs.dynamic import DynamicGraph
from repro.graphs.generators import evolve_snapshot, powerlaw_snapshot
from repro.graphs.partition import round_robin_partition
from repro.graphs.snapshot import GraphSnapshot
from repro.serving import ServiceConfig, StreamingService, serve_offline
from repro.serving.ingest import WindowedIngestor


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def snapshots(draw, max_vertices=30):
    n = draw(st.integers(2, max_vertices))
    max_edges = min(n * (n - 1), 4 * n)
    e = draw(st.integers(0, max_edges))
    seed = draw(st.integers(0, 2**31 - 1))
    return powerlaw_snapshot(n, e, seed=seed)


@st.composite
def profiles(draw):
    return WorkloadProfile(
        gnn_layers=draw(st.integers(1, 3)),
        num_snapshots=draw(st.integers(1, 32)),
        avg_subgraph_vertices=draw(st.floats(1.0, 10_000.0)),
        avg_subgraph_edges=draw(st.floats(0.0, 100_000.0)),
        dissimilarity=draw(st.floats(0.0, 1.0)),
        alpha=draw(st.integers(1, 8)),
    )


def sum_preserving_swaps(row, num_vertices):
    """Every rewrite of two members ``a, b`` of ``row`` into two non-members
    ``c, d`` with ``c + d == a + b``, as ``((a, b), (c, d))`` pairs.

    Each keeps the row's degree and its sum of source ids, so a row
    fingerprint built from those two numbers cannot tell the rows apart.
    """
    members = set(row)
    swaps = []
    for a, b in combinations(sorted(members), 2):
        for c in range(max(0, a + b - num_vertices + 1), (a + b + 1) // 2):
            d = a + b - c
            if c not in members and d not in members:
                swaps.append(((a, b), (c, d)))
    return swaps


@st.composite
def row_swaps(draw, snapshot):
    """``snapshot`` with one row rewritten by a sum-preserving swap.

    The snapshot comes back unchanged when no row has a swap.
    """
    candidates = [
        (v, swap)
        for v in range(snapshot.num_vertices)
        for swap in sum_preserving_swaps(
            snapshot.in_neighbors(v).tolist(), snapshot.num_vertices
        )
    ]
    if not candidates:
        return snapshot
    v, ((a, b), (c, d)) = draw(st.sampled_from(candidates))
    edges = snapshot.edge_set() - {(a, v), (b, v)} | {(c, v), (d, v)}
    return GraphSnapshot.from_edges(
        snapshot.num_vertices,
        edges,
        feature_dim=snapshot.feature_dim,
        features=snapshot.features,
    )


# ---------------------------------------------------------------------------
# Graph structure invariants
# ---------------------------------------------------------------------------
class TestSnapshotProperties:
    @settings(max_examples=40, deadline=None)
    @given(snapshots())
    def test_csr_invariants(self, snapshot):
        assert snapshot.indptr[0] == 0
        assert snapshot.indptr[-1] == snapshot.num_edges
        assert np.all(np.diff(snapshot.indptr) >= 0)
        # Rows sorted and duplicate-free.
        for v in range(snapshot.num_vertices):
            row = snapshot.in_neighbors(v)
            assert np.all(np.diff(row) > 0)

    @settings(max_examples=40, deadline=None)
    @given(snapshots())
    def test_degree_sums_equal_edges(self, snapshot):
        assert snapshot.in_degree().sum() == snapshot.num_edges
        assert snapshot.out_degree().sum() == snapshot.num_edges

    @settings(max_examples=30, deadline=None)
    @given(snapshots(), st.integers(0, 3))
    def test_k_hop_monotone_and_bounded(self, snapshot, hops):
        seeds = np.arange(min(3, snapshot.num_vertices))
        smaller = snapshot.k_hop_affected(seeds, hops)
        larger = snapshot.k_hop_affected(seeds, hops + 1)
        assert set(smaller.tolist()) <= set(larger.tolist())
        assert len(larger) <= snapshot.num_vertices

    @settings(max_examples=30, deadline=None)
    @given(snapshots())
    def test_aggregation_preserves_shape_and_finiteness(self, snapshot):
        x = np.ones((snapshot.num_vertices, 3))
        out = snapshot.aggregate(x)
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))


def _reachable_within(snapshot, seeds, hops):
    """Vertices within ``hops`` out-steps of ``seeds``, by plain set walking."""
    out = {v: set() for v in range(snapshot.num_vertices)}
    for src, dst in snapshot.edge_set():
        out[src].add(dst)
    affected = set(seeds)
    for _ in range(hops):
        affected |= {w for v in affected for w in out[v]}
    return sorted(affected)


class TestKHopProperties:
    @settings(max_examples=40, deadline=None)
    @given(snapshots(), st.lists(st.integers(0, 29), max_size=6), st.integers(0, 3))
    def test_walk_matches_set_reference(self, snapshot, seeds, hops):
        seeds = [v for v in seeds if v < snapshot.num_vertices]
        walk = snapshot.k_hop_walk(np.array(seeds, dtype=np.int64), hops)
        assert len(walk) == hops + 1
        for h, affected in enumerate(walk):
            assert affected.tolist() == _reachable_within(snapshot, seeds, h)

    @settings(max_examples=30, deadline=None)
    @given(
        snapshots(),
        st.floats(0.0, 0.6),
        st.integers(0, 2**31 - 1),
        st.integers(1, 3),
    )
    def test_layer_sets_equal_per_layer_walks(self, snapshot, dis, seed, layers):
        evolved = evolve_snapshot(snapshot, dis, np.random.default_rng(seed))
        graph = DynamicGraph([snapshot, evolved])
        transition = RedundancyAnalysis.analyze(graph, layers)[1]
        changed = graph.changed_vertices(1)
        for l in range(layers):
            np.testing.assert_array_equal(
                transition.affected_per_layer[l],
                graph[1].k_hop_affected(changed, l + 1),
            )


def _changed_rows(before, after):
    """Brute-force change detection: compare each shared row as a list."""
    common = min(before.num_vertices, after.num_vertices)
    changed = [
        v
        for v in range(common)
        if before.in_neighbors(v).tolist() != after.in_neighbors(v).tolist()
    ]
    return changed + list(range(common, after.num_vertices))


def _resized(snapshot, num_vertices):
    """``snapshot`` in a grown or shrunk vertex space (edges past it dropped)."""
    src, dst = snapshot.edge_arrays()
    keep = (src < num_vertices) & (dst < num_vertices)
    return GraphSnapshot.from_edge_arrays(num_vertices, src[keep], dst[keep])


class TestChangeDetectionProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        snapshots(),
        st.floats(0.0, 0.6),
        st.integers(0, 2**31 - 1),
        st.integers(-3, 3),
        st.data(),
    )
    def test_changed_vertices_match_row_comparison(
        self, snapshot, dis, seed, grow, data
    ):
        evolved = evolve_snapshot(snapshot, dis, np.random.default_rng(seed))
        after = data.draw(row_swaps(evolved))
        after = _resized(after, max(after.num_vertices + grow, 1))
        graph = DynamicGraph([snapshot, after])
        assert graph.changed_vertices(1).tolist() == _changed_rows(snapshot, after)

    @settings(max_examples=40, deadline=None)
    @given(snapshots(), st.data())
    def test_a_swap_changes_exactly_its_row(self, snapshot, data):
        swapped = data.draw(row_swaps(snapshot))
        changed = DynamicGraph([snapshot, swapped]).changed_vertices(1)
        assert len(changed) == (0 if swapped is snapshot else 1)
        assert changed.tolist() == _changed_rows(snapshot, swapped)


class TestDeltaProperties:
    @settings(max_examples=30, deadline=None)
    @given(snapshots(), st.floats(0.0, 0.6), st.integers(0, 2**31 - 1))
    def test_delta_reconstructs_successor(self, snapshot, dis, seed):
        rng = np.random.default_rng(seed)
        evolved = evolve_snapshot(snapshot, dis, rng)
        delta = snapshot_delta(snapshot, evolved)
        rebuilt = set(snapshot.edge_set())
        rebuilt -= set(zip(delta.removed_src.tolist(), delta.removed_dst.tolist()))
        rebuilt |= set(zip(delta.added_src.tolist(), delta.added_dst.tolist()))
        assert rebuilt == evolved.edge_set()

    @settings(max_examples=30, deadline=None)
    @given(snapshots(), st.floats(0.0, 0.6), st.integers(0, 2**31 - 1))
    def test_core_is_subset_of_both(self, snapshot, dis, seed):
        rng = np.random.default_rng(seed)
        evolved = evolve_snapshot(snapshot, dis, rng)
        core = common_core(snapshot, evolved)
        assert core.edge_set() <= snapshot.edge_set()
        assert core.edge_set() <= evolved.edge_set()


class TestPartitionProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 16), st.integers(0, 2**31 - 1))
    def test_round_robin_is_partition(self, n, parts, seed):
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        partition = round_robin_partition(order, parts, n)
        sizes = partition.sizes()
        assert sizes.sum() == n
        assert sizes.max() - sizes.min() <= 1  # near-equal cardinality


# ---------------------------------------------------------------------------
# Streaming ingest against a from-scratch oracle
# ---------------------------------------------------------------------------
_EDGE_EVENT = st.tuples(
    st.integers(0, 24),  # time, in half-windows: every other one is a boundary
    st.integers(0, 5),
    st.integers(0, 5),
    st.sampled_from(["add", "remove"]),
)


@st.composite
def event_streams(draw, swaps=False):
    """Adversarial streams over a tiny vertex space, with window width.

    A six-vertex space makes duplicate adds and removes of absent edges
    common; the explicit lists add same-timestamp add/remove pairs and
    repeated adds, the half-window time grid puts events exactly on
    window boundaries, and its sparse draws leave empty windows.  With
    ``swaps=True`` one row of the initial graph is also rewritten at one
    instant by a sum-preserving swap (:func:`sum_preserving_swaps`).
    """
    n = 6
    window = draw(st.sampled_from([1.0, 2.0, 2.5]))
    events = [
        EdgeEvent(t * window / 2, s, d, kind)
        for t, s, d, kind in draw(st.lists(_EDGE_EVENT, max_size=40))
    ]
    for t, s, d, _ in draw(st.lists(_EDGE_EVENT, max_size=4)):
        events += [
            EdgeEvent(t * window / 2, s, d, "add"),
            EdgeEvent(t * window / 2, s, d, "remove"),
        ]
    for t, s, d, _ in draw(st.lists(_EDGE_EVENT, max_size=4)):
        events += [EdgeEvent(t * window / 2, s, d, "add")] * 2
    vertex = st.integers(0, n - 1)
    initial = draw(st.sets(st.tuples(vertex, vertex), max_size=12))
    if swaps:
        row = draw(vertex)
        (a, b), (c, d) = draw(st.sampled_from(_ROW_SWAPS))
        initial = initial - {(c, row), (d, row)} | {(a, row), (b, row)}
        at = draw(st.integers(0, 24)) * window / 2
        events += [
            EdgeEvent(at, a, row, "remove"),
            EdgeEvent(at, b, row, "remove"),
            EdgeEvent(at, c, row, "add"),
            EdgeEvent(at, d, row, "add"),
        ]
    stream = ContinuousDynamicGraph(GraphSnapshot.from_edges(n, initial), events)
    return stream, window


#: every sum-preserving swap of a two-member row in the six-vertex space
_ROW_SWAPS = [
    swap
    for pair in combinations(range(6), 2)
    for swap in sum_preserving_swaps(pair, 6)
]


def _edge_pairs(src, dst):
    return set(zip(src.tolist(), dst.tolist()))


class TestIngestOracleProperties:
    @settings(max_examples=150, deadline=None)
    @given(event_streams(), st.randoms(use_true_random=False))
    def test_windows_match_from_scratch_snapshots(self, case, rnd):
        stream, window = case
        origin = 0.0
        # Arrival order is shuffled inside each window; ingest must not care.
        arrival = sorted(
            stream.events,
            key=lambda e: (window_index(e.time, origin, window), rnd.random()),
        )
        ingestor = WindowedIngestor.for_stream(stream, window, origin=origin)
        windows = list(ingestor.windows(arrival))
        assert len(windows) == stream.num_windows(window, origin=origin)
        previous = stream.initial.edge_set()
        for k, served in enumerate(windows):
            edges = stream.edges_at(origin + (k + 1) * window)
            expected = GraphSnapshot.from_edges(stream.num_vertices, edges)
            snapshot = served.snapshot
            assert snapshot.indptr.dtype == np.int64
            assert snapshot.indices.dtype == np.int64
            np.testing.assert_array_equal(snapshot.indptr, expected.indptr)
            np.testing.assert_array_equal(snapshot.indices, expected.indices)
            delta = served.delta
            assert _edge_pairs(delta.added_src, delta.added_dst) == edges - previous
            assert _edge_pairs(delta.removed_src, delta.removed_dst) == previous - edges
            assert delta.num_added == len(edges - previous)
            assert delta.num_removed == len(previous - edges)
            previous = edges
        assert ingestor.late_events == 0


class TestServeOracleProperties:
    """Served results against :func:`serve_offline`, which diffs every
    window from scratch, on adversarial streams with row swaps."""

    @settings(max_examples=25, deadline=None)
    @given(event_streams(swaps=True))
    def test_online_equals_offline(self, case):
        stream, window = case
        spec = DGNNSpec(gcn_dims=(8, 8), rnn_hidden_dim=8)
        inline = ServiceConfig(window=window, origin=0.0, workers=0, pipeline_depth=1)
        offline = serve_offline(stream, spec, DiTileAccelerator(), inline)
        for config in (inline, ServiceConfig(window=window, origin=0.0)):
            report = StreamingService(DiTileAccelerator(), config).serve(stream, spec)
            assert report.results == offline


# ---------------------------------------------------------------------------
# Analytic model invariants
# ---------------------------------------------------------------------------
class TestCommModelProperties:
    @settings(max_examples=50, deadline=None)
    @given(profiles(), st.integers(1, 64), st.integers(1, 64))
    # Each example subtracts a share from its whole (Eq. 9 at Dis = 0,
    # Eq. 10 with one vertex group), where rounding can go below zero.
    @example(
        profile=WorkloadProfile(
            gnn_layers=2,
            num_snapshots=16,
            avg_subgraph_vertices=12.0,
            avg_subgraph_edges=97018.0,
            dissimilarity=0.0,
            alpha=4,
        ),
        ns=1,
        nv=12,
    )
    @example(
        profile=WorkloadProfile(
            gnn_layers=3,
            num_snapshots=14,
            avg_subgraph_vertices=1763.0934542235545,
            avg_subgraph_edges=49110.2446726586,
            dissimilarity=0.5810387591071149,
            alpha=7,
        ),
        ns=15,
        nv=1,
    )
    def test_all_components_nonnegative(self, profile, ns, nv):
        model = CommunicationModel(profile)
        factors = ParallelFactors.from_groups(
            profile.num_snapshots, profile.avg_subgraph_vertices, ns, nv
        )
        breakdown = model.breakdown(factors)
        assert breakdown.temporal >= 0
        assert breakdown.rf_spatial >= -1e-9
        assert breakdown.reuse >= 0
        assert breakdown.total >= -1e-9

    @settings(max_examples=50, deadline=None)
    @given(profiles())
    def test_redundancy_never_exceeds_spatial(self, profile):
        model = CommunicationModel(profile)
        factors = ParallelFactors.from_groups(
            profile.num_snapshots, profile.avg_subgraph_vertices, 1,
            max(int(profile.avg_subgraph_vertices), 1),
        )
        assert model.redundant_spatial_comm(factors) <= model.spatial_comm(
            factors
        ) + 1e-6

    @settings(max_examples=50, deadline=None)
    @given(profiles(), st.integers(1, 10))
    def test_dram_access_monotone_in_alpha(self, profile, alpha):
        from repro.graphs.dynamic import DynamicGraphStats

        stats = DynamicGraphStats(
            num_snapshots=profile.num_snapshots,
            num_vertices=[int(profile.avg_subgraph_vertices * profile.alpha)]
            * profile.num_snapshots,
            num_edges=[int(profile.avg_subgraph_edges * profile.alpha)]
            * profile.num_snapshots,
            feature_dim=16,
            avg_vertices=profile.avg_subgraph_vertices * profile.alpha,
            avg_edges=profile.avg_subgraph_edges * profile.alpha,
            avg_dissimilarity=profile.dissimilarity,
            dissimilarity=[],
        )
        assert dram_access(stats, alpha) <= dram_access(stats, alpha + 1) + 1e-6


class TestAlgorithmProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 10_000),  # vertices
        st.integers(0, 100_000),  # edges
        st.floats(0.0, 1.0),  # dissimilarity
        st.integers(0, 1000),  # added
        st.integers(0, 1000),  # removed
        st.integers(1, 3),  # layers
    )
    def test_fraction_invariants(self, v, e, dis, added, removed, layers):
        q = SnapshotQuantities(2, v, e, dis, added, removed)
        params = AlgorithmParams()
        ditile = layer_fractions("ditile", q, layers, params)
        for algorithm in ALGORITHMS:
            fractions = layer_fractions(algorithm, q, layers, params)
            assert len(fractions) == layers
            for f, d in zip(fractions, ditile):
                assert 0.0 <= f <= 1.0
                # DiTile never does more work than any other algorithm.
                assert d <= f + 1e-12


class TestTilingProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        vertices=st.integers(10, 2000),
        degree=st.floats(1.0, 20.0),
        snapshots=st.integers(1, 6),
        buffer_kib=st.integers(8, 4096),
        feature_dim=st.integers(4, 512),
    )
    def test_chosen_alpha_is_minimal_feasible(
        self, vertices, degree, snapshots, buffer_kib, feature_dim
    ):
        from repro.core.tiling import (
            subgraph_data_volume,
            subgraph_tiling,
        )
        from repro.graphs.dynamic import DynamicGraphStats

        edges = int(vertices * degree)
        stats = DynamicGraphStats(
            num_snapshots=snapshots,
            num_vertices=[vertices] * snapshots,
            num_edges=[edges] * snapshots,
            feature_dim=feature_dim,
            avg_vertices=float(vertices),
            avg_edges=float(edges),
            avg_dissimilarity=0.1,
            dissimilarity=[0.1] * max(snapshots - 1, 0),
        )
        buffer_bytes = buffer_kib * 1024
        result = subgraph_tiling(stats, buffer_bytes, feature_dim=feature_dim)
        if result.fits_buffer:
            # Feasible and minimal: alpha fits, alpha-1 does not (or is 0).
            assert (
                subgraph_data_volume(stats, result.alpha, feature_dim)
                <= buffer_bytes
            )
            if result.alpha > 1:
                assert (
                    subgraph_data_volume(stats, result.alpha - 1, feature_dim)
                    > buffer_bytes
                )


class TestPersistenceProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        snapshots=st.integers(1, 4),
        with_features=st.booleans(),
    )
    def test_npz_round_trip(self, tmp_path_factory, seed, snapshots, with_features):
        from repro.graphs.generators import generate_dynamic_graph
        from repro.graphs.io import load_dynamic_graph, save_dynamic_graph

        graph = generate_dynamic_graph(
            30, 100, snapshots, feature_dim=5, seed=seed,
            with_features=with_features,
        )
        path = tmp_path_factory.mktemp("npz") / "graph.npz"
        save_dynamic_graph(graph, path)
        loaded = load_dynamic_graph(path)
        for original, restored in zip(graph, loaded):
            assert original == restored
            if with_features:
                np.testing.assert_array_equal(
                    original.features, restored.features
                )


class TestSchedulerProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        dissimilarity=st.floats(0.0, 0.6),
        tiles=st.sampled_from([4, 16, 64]),
    )
    def test_plan_invariants(self, seed, dissimilarity, tiles):
        from repro.core.plan import DGNNSpec
        from repro.core.scheduler import DiTileScheduler
        from repro.graphs.generators import generate_dynamic_graph

        graph = generate_dynamic_graph(
            60, 240, 4, dissimilarity=dissimilarity, feature_dim=8, seed=seed
        )
        spec = DGNNSpec.classic(8, hidden_dim=8)
        plan = DiTileScheduler(tiles, 4 * 2**20).plan(graph, spec)
        assert plan.tiling.alpha >= 1
        assert 1 <= plan.factors.tiles_used <= tiles
        assert plan.comm.total >= -1e-9
        assert plan.workload.partition.sizes().sum() == 60
        assert 0 < plan.workload.utilization <= 1.0
