"""Unit and integration tests for the streaming-inference service layer."""

import dataclasses
import hashlib
import io
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.plan import DGNNSpec
from repro.ditile import DiTileAccelerator
from repro.graphs.continuous import ContinuousDynamicGraph, EdgeEvent, EventColumns
from repro.graphs.delta import apply_delta, snapshot_delta
from repro.graphs.dynamic import DynamicGraph
from repro.graphs.snapshot import GraphSnapshot
from repro.serving import (
    PlanDecision,
    PlanManager,
    ServiceConfig,
    StreamingService,
    WindowedIngestor,
    WindowPlan,
    WindowProfile,
    WorkloadSignature,
    serve_offline,
    synthetic_event_stream,
)
from repro.serving.executor import WindowExecutor, simulate_window, transition_graph
from repro.serving.ingest import IncrementalWindowBuilder


SPEC = DGNNSpec(gcn_dims=(8, 8), rnn_hidden_dim=8)


def _stream(events, n=16, initial=None, name="s"):
    return ContinuousDynamicGraph(
        initial if initial is not None else GraphSnapshot.empty(n), events, name=name
    )


# ---------------------------------------------------------------------------
# apply_delta (graphs/delta.py)
# ---------------------------------------------------------------------------
class TestApplyDelta:
    def test_inverse_of_snapshot_delta(self):
        rng = np.random.default_rng(0)
        prev = GraphSnapshot.from_edges(
            10, {(int(a), int(b)) for a, b in rng.integers(0, 10, (25, 2))}
        )
        cur = GraphSnapshot.from_edges(
            10, {(int(a), int(b)) for a, b in rng.integers(0, 10, (25, 2))}
        )
        rebuilt = apply_delta(prev, snapshot_delta(prev, cur))
        assert rebuilt == cur

    def test_empty_delta_preserves_snapshot(self):
        prev = GraphSnapshot.from_edges(5, [(0, 1), (2, 3)])
        rebuilt = apply_delta(prev, snapshot_delta(prev, prev))
        assert rebuilt == prev

    def test_grows_vertex_space_when_delta_references_new_ids(self):
        prev = GraphSnapshot.from_edges(3, [(0, 1)])
        cur = GraphSnapshot.from_edges(6, [(0, 1), (4, 5)])
        rebuilt = apply_delta(prev, snapshot_delta(prev, cur))
        assert rebuilt.num_vertices == 6
        assert rebuilt.edge_set() == {(0, 1), (4, 5)}


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------
class TestSignature:
    def test_profile_from_snapshot(self):
        snap = GraphSnapshot.from_edges(4, [(0, 1), (2, 1), (3, 1), (0, 2)])
        profile = WindowProfile.from_snapshot(snap)
        assert profile.num_edges == 4
        assert profile.degree_skew == pytest.approx(3 / 1.0)

    def test_empty_snapshot_skew_is_one(self):
        assert WindowProfile.from_snapshot(GraphSnapshot.empty(4)).degree_skew == 1.0

    def test_similar_profiles_share_signature(self):
        a = WindowProfile(num_vertices=1000, num_edges=5000, degree_skew=4.0)
        b = WindowProfile(num_vertices=1000, num_edges=5100, degree_skew=4.1)
        assert WorkloadSignature.from_profile(a, SPEC) == (
            WorkloadSignature.from_profile(b, SPEC)
        )

    def test_different_scales_do_not_collide(self):
        a = WindowProfile(num_vertices=1000, num_edges=5000, degree_skew=4.0)
        b = WindowProfile(num_vertices=1000, num_edges=20000, degree_skew=4.0)
        assert WorkloadSignature.from_profile(a, SPEC) != (
            WorkloadSignature.from_profile(b, SPEC)
        )

    def test_spec_is_part_of_the_key(self):
        p = WindowProfile(num_vertices=100, num_edges=400, degree_skew=2.0)
        other = DGNNSpec(gcn_dims=(16, 16), rnn_hidden_dim=16)
        assert WorkloadSignature.from_profile(p, SPEC) != (
            WorkloadSignature.from_profile(p, other)
        )


# ---------------------------------------------------------------------------
# Plan manager
# ---------------------------------------------------------------------------
def _transition(num_edges, n=32, seed=0):
    rng = np.random.default_rng(seed)
    edges = {(int(a), int(b)) for a, b in rng.integers(0, n, (num_edges, 2))}
    snap = GraphSnapshot.from_edges(n, edges)
    return DynamicGraph([snap, snap])


class TestPlanManager:
    def test_miss_then_hit(self):
        manager = PlanManager(DiTileAccelerator(), capacity=4)
        graph = _transition(60)
        plan1, d1 = manager.resolve(graph, SPEC)
        plan2, d2 = manager.resolve(graph, SPEC)
        assert d1 is PlanDecision.MISS and d2 is PlanDecision.HIT
        assert plan1 is plan2
        assert (manager.hits, manager.misses) == (1, 1)

    def test_same_bucket_change_reuses_the_plan(self):
        manager = PlanManager(DiTileAccelerator(), capacity=4)
        graph = _transition(60, seed=1)
        plan, _ = manager.resolve(graph, SPEC)
        # ~3% more edges: the same log-bucket signature, so the cached
        # plan is reused.
        near = _transition(62, seed=1)
        profile = WindowProfile.from_snapshot(near[-1])
        assert profile != WindowProfile.from_snapshot(graph[-1])
        assert WorkloadSignature.from_profile(
            profile, SPEC
        ) == WorkloadSignature.from_profile(
            WindowProfile.from_snapshot(graph[-1]), SPEC
        )
        assert manager.resolve(near, SPEC) == (plan, PlanDecision.HIT)

    def test_lru_bound_evicts(self):
        manager = PlanManager(DiTileAccelerator(), capacity=2)
        for edges in (20, 200, 2000):
            manager.resolve(_transition(edges), SPEC)
        assert manager.size == 2
        assert manager.evictions == 1

    def test_exported_state_holds_no_graph(self):
        manager = PlanManager(DiTileAccelerator(), capacity=4)
        graph = _transition(21_000, n=1024)
        assert graph[-1].num_edges >= 20_000
        other = _transition(60)  # another signature: a second cached plan
        decisions = [
            manager.resolve(g, SPEC)[1] for g in (graph, graph, other)
        ]
        assert decisions == [
            PlanDecision.MISS, PlanDecision.HIT, PlanDecision.MISS
        ]
        assert manager.size == 2
        seen = set()

        class TypeRecorder(pickle.Pickler):
            def persistent_id(self, obj):
                seen.add(type(obj))
                return None

        TypeRecorder(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(
            manager.export_state()
        )
        assert WindowPlan in seen
        assert not seen & {GraphSnapshot, DynamicGraph, np.ndarray}


# ---------------------------------------------------------------------------
# Ingest
# ---------------------------------------------------------------------------
class TestIncrementalWindowBuilder:
    def test_rejects_out_of_space_events(self):
        builder = IncrementalWindowBuilder(4)
        with pytest.raises(ValueError):
            builder.close_window(EventColumns.from_events([EdgeEvent(0.0, 0, 9)]))

    def test_rejects_oversized_initial(self):
        with pytest.raises(ValueError):
            IncrementalWindowBuilder(2, initial=GraphSnapshot.empty(5))

    def test_delta_nets_churn(self):
        builder = IncrementalWindowBuilder(4, initial=GraphSnapshot.from_edges(4, [(0, 1)]))
        snapshot, delta = builder.close_window(
            EventColumns.from_events(
                [
                    EdgeEvent(0.0, 0, 1),  # duplicate add of a live edge
                    EdgeEvent(1.0, 1, 2),
                    EdgeEvent(2.0, 1, 2, kind="remove"),
                    EdgeEvent(3.0, 2, 3),
                ]
            )
        )
        assert snapshot.edge_set() == {(0, 1), (2, 3)}
        assert delta.num_added == 1 and delta.num_removed == 0


class TestWindowedIngestor:
    def test_out_of_order_within_window_matches_sorted(self):
        # Feed the ingestor raw (unsorted) events; the offline reference
        # sorts globally. Disorder confined to windows must not matter.
        raw = [
            EdgeEvent(0.5, 0, 1),
            EdgeEvent(1.9, 2, 3),
            EdgeEvent(1.0, 1, 2),  # out of order, same window
            EdgeEvent(3.5, 3, 4),
            EdgeEvent(2.7, 4, 5),  # out of order, same (second) window
        ]
        ingestor = WindowedIngestor(16, window=2.0, origin=0.5)
        online = [w.snapshot for w in ingestor.windows(raw)]
        offline = _stream(raw).discretize_windows(2.0, origin=0.5)
        assert len(online) == offline.num_snapshots
        for a, b in zip(online, offline):
            assert a == b
        assert ingestor.late_events == 0

    def test_late_event_dropped_and_counted(self):
        raw = [EdgeEvent(0.0, 0, 1), EdgeEvent(5.0, 1, 2), EdgeEvent(0.5, 2, 3)]
        ingestor = WindowedIngestor(16, window=1.0)
        windows = list(ingestor.windows(raw))
        assert ingestor.late_events == 1
        assert windows[-1].snapshot.edge_set() == {(0, 1), (1, 2)}

    def test_gap_emits_empty_windows(self):
        raw = [EdgeEvent(0.0, 0, 1), EdgeEvent(9.5, 1, 2)]
        ingestor = WindowedIngestor(16, window=2.0)
        windows = list(ingestor.windows(raw))
        assert [w.index for w in windows] == [0, 1, 2, 3, 4]
        assert [w.num_events for w in windows] == [1, 0, 0, 0, 1]
        assert windows[2].snapshot.edge_set() == {(0, 1)}

    def test_empty_stream_yields_initial_window(self):
        initial = GraphSnapshot.from_edges(4, [(2, 3)])
        ingestor = WindowedIngestor(4, window=1.0, initial=initial)
        windows = list(ingestor.windows([]))
        assert len(windows) == 1
        assert windows[0].snapshot.edge_set() == {(2, 3)}


class TestSyntheticEventStream:
    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            (
                dict(num_vertices=64, num_events=3000, seed=7),
                "ab5f7853f4e09d2c00efd9299c8f9acf74f818fb99f055bd97669ef2f306eb3b",
            ),
            (
                dict(
                    num_vertices=128,
                    num_events=4000,
                    seed=11,
                    remove_fraction=0.3,
                    burst_period=40.0,
                ),
                "41f02953c7c928a936bfd3b4b7f73a075d861810d17ed4398946bbabfd136239",
            ),
        ],
    )
    def test_stream_is_pinned(self, kwargs, digest):
        # Digests of every (time, src, dst, kind), pinned when destinations
        # were drawn with rng.choice(n, p=weights): the precomputed-CDF draw
        # must give the same stream.
        stream = synthetic_event_stream(**kwargs)
        h = hashlib.sha256()
        for e in stream.events:
            h.update(repr((e.time, e.src, e.dst, e.kind)).encode())
        assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------
class TestWindowExecutor:
    def test_inline_mode_runs_synchronously(self):
        with WindowExecutor(0) as pool:
            assert pool.submit(lambda: 42).result() == 42

    def test_inline_mode_captures_exceptions(self):
        def boom():
            raise RuntimeError("x")

        with WindowExecutor(0) as pool:
            future = pool.submit(boom)
            with pytest.raises(RuntimeError):
                future.result()

    def test_pool_mode(self):
        with WindowExecutor(2) as pool:
            futures = [pool.submit(lambda i=i: i * i) for i in range(8)]
            assert [f.result() for f in futures] == [i * i for i in range(8)]

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            WindowExecutor(-1)


class TestSimulateWindow:
    def test_first_window_is_cold_start(self):
        model = DiTileAccelerator()
        snap = GraphSnapshot.from_edges(8, [(0, 1), (1, 2), (2, 3)])
        graph = transition_graph(None, snap)
        plan = WindowPlan.from_plan(model, model.scheduler.plan(graph, SPEC))
        result = simulate_window(model, SPEC, graph, plan)
        assert result.execution_cycles > 0
        assert len(result.per_snapshot_cycles) == 1

    def test_incremental_window_cheaper_than_cold(self):
        model = DiTileAccelerator()
        rng = np.random.default_rng(2)
        edges = {(int(a), int(b)) for a, b in rng.integers(0, 32, (120, 2))}
        snap = GraphSnapshot.from_edges(32, edges)
        near = GraphSnapshot.from_edges(32, set(list(edges)[:-3]) | {(0, 31)})
        cold_graph = transition_graph(None, near)
        warm_graph = transition_graph(snap, near)
        cold_plan = WindowPlan.from_plan(
            model, model.scheduler.plan(cold_graph, SPEC)
        )
        warm_plan = WindowPlan.from_plan(
            model, model.scheduler.plan(warm_graph, SPEC)
        )
        cold = simulate_window(model, SPEC, cold_graph, cold_plan)
        warm = simulate_window(model, SPEC, warm_graph, warm_plan)
        assert warm.total_macs < cold.total_macs


# ---------------------------------------------------------------------------
# End-to-end service
# ---------------------------------------------------------------------------
class TestStreamingService:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(window=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(max_batch_windows=0)
        with pytest.raises(ValueError):
            ServiceConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            ServiceConfig(workers=-1)
        with pytest.raises(ValueError, match="plan_cache_capacity"):
            ServiceConfig(plan_cache_capacity=0)

    def test_configuration_table_lists_exactly_the_config_fields(self):
        """docs/serving.md has one Configuration row per field, in order."""
        docs = Path(__file__).parent.parent / "docs" / "serving.md"
        section = docs.read_text().split("## Configuration", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert documented == [f.name for f in dataclasses.fields(ServiceConfig)]

    def test_serve_reports_stats(self):
        stream = synthetic_event_stream(num_vertices=48, num_events=1200, seed=9)
        config = ServiceConfig(window=80.0, workers=2, max_batch_windows=3)
        report = StreamingService(DiTileAccelerator(), config).serve(stream, SPEC)
        stats = report.stats
        assert stats.windows == report.num_windows > 5
        assert stats.events == 1200
        assert stats.plan_lookups == stats.windows
        assert stats.plan_hit_rate > 0
        assert stats.elapsed_s > 0
        assert stats.events_per_sec > 0
        assert len(stats.latencies) == stats.windows
        assert stats.p95_latency_s >= stats.p50_latency_s >= 0
        summary = stats.summary()
        assert "hit rate" in summary and "events/s" in summary

    def test_parity_online_vs_offline(self):
        """The acceptance-criteria parity check: threaded, batched online
        serving must produce per-window results identical to the offline
        batch pipeline over the same discretized stream."""
        stream = synthetic_event_stream(num_vertices=64, num_events=2500, seed=4)
        config = ServiceConfig(
            window=125.0, workers=3, max_batch_windows=4, queue_capacity=3
        )
        report = StreamingService(DiTileAccelerator(), config).serve(stream, SPEC)
        offline = serve_offline(stream, SPEC, DiTileAccelerator(), config)
        assert report.num_windows == len(offline) > 10
        for online_result, offline_result in zip(report.results, offline):
            assert online_result == offline_result

    def test_parity_is_insensitive_to_service_shape(self):
        stream = synthetic_event_stream(num_vertices=40, num_events=900, seed=11)
        reference = None
        for workers, batch in [(0, 1), (1, 2), (4, 8)]:
            config = ServiceConfig(
                window=60.0, workers=workers, max_batch_windows=batch,
                queue_capacity=2,
            )
            report = StreamingService(DiTileAccelerator(), config).serve(
                stream, SPEC
            )
            results = report.results
            if reference is None:
                reference = results
            else:
                assert results == reference

    def test_dataset_replay_roundtrip(self):
        from repro.serving import stream_from_dataset

        stream = stream_from_dataset("TW", scale=0.02, snapshots=4)
        spec = DGNNSpec.classic(stream.initial.feature_dim)
        config = ServiceConfig(window=1.0, origin=0.0, workers=2)
        report = StreamingService(DiTileAccelerator(), config).serve(stream, spec)
        assert report.num_windows == 3  # T-1 transitions


class TestDeltaPricedWindows:
    """Served windows are priced from ingest's delta; the offline
    reference diffs every transition from scratch."""

    def test_only_the_offline_reference_diffs_snapshots(self, monkeypatch):
        import repro.graphs.delta as delta_module

        stream = synthetic_event_stream(num_vertices=48, num_events=1200, seed=6)
        config = ServiceConfig(window=70.0)
        calls = []
        diff = delta_module.snapshot_delta

        def counted(prev, cur):
            calls.append(cur.timestamp)
            return diff(prev, cur)

        monkeypatch.setattr(delta_module, "snapshot_delta", counted)
        report = StreamingService(DiTileAccelerator(), config).serve(stream, SPEC)
        assert report.stats.plan_misses > 1
        assert calls == []
        offline = serve_offline(stream, SPEC, DiTileAccelerator(), config)
        assert len(calls) >= len(offline) - 1 > 8
        assert report.results == offline


# ---------------------------------------------------------------------------
# Overlapped window pipeline
# ---------------------------------------------------------------------------
class TestWindowPipeline:
    def test_config_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            ServiceConfig(pipeline_depth=0)
        with pytest.raises(ValueError):
            ServiceConfig(pipeline_depth=-1)

    def test_pipeline_rejects_nonpositive_depth(self):
        from repro.serving import WindowPipeline

        with pytest.raises(ValueError, match="depth"):
            WindowPipeline(
                source=None, manager=None, runner=None, pool=None,
                spec=SPEC, stats=None, results=[], depth=0,
            )

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_parity_across_depths(self, depth):
        """The tentpole invariant: per-window results are bit-identical
        to the serialized offline reference at every pipeline depth."""
        stream = synthetic_event_stream(num_vertices=48, num_events=1200, seed=6)
        config = ServiceConfig(
            window=70.0, workers=2, max_batch_windows=3,
            pipeline_depth=depth, queue_capacity=4,
        )
        report = StreamingService(DiTileAccelerator(), config).serve(stream, SPEC)
        offline = serve_offline(stream, SPEC, DiTileAccelerator(), config)
        assert report.num_windows == len(offline) > 8
        assert report.results == offline
        assert report.stats.pipeline_depth == depth
        assert 1 <= report.stats.max_inflight_batches <= depth

    def test_plan_cache_counters_are_depth_invariant(self):
        stream = synthetic_event_stream(num_vertices=40, num_events=900, seed=11)
        counters = []
        for depth in (1, 3):
            config = ServiceConfig(window=60.0, workers=2, pipeline_depth=depth)
            stats = StreamingService(DiTileAccelerator(), config).serve(
                stream, SPEC
            ).stats
            counters.append(
                (stats.plan_hits, stats.plan_misses,
                 stats.plan_evictions, stats.profile_reuses)
            )
        assert counters[0] == counters[1]

    def test_empty_windows_reuse_the_profile(self):
        """A window with an empty delta has (by construction) the same
        snapshot as its predecessor, so its workload profile is reused
        instead of re-measured — without changing results."""
        stream = synthetic_event_stream(num_vertices=24, num_events=60, seed=2)
        first, last = stream.time_span
        config = ServiceConfig(
            window=(last - first) / 40, workers=2, pipeline_depth=2
        )
        report = StreamingService(DiTileAccelerator(), config).serve(stream, SPEC)
        offline = serve_offline(stream, SPEC, DiTileAccelerator(), config)
        assert report.results == offline
        empty_windows = sum(
            1 for r in report.stats.records if r.num_events == 0
        )
        assert report.stats.profile_reuses == empty_windows > 0

    def test_stall_accounting_and_summary(self):
        stream = synthetic_event_stream(num_vertices=48, num_events=1500, seed=9)
        config = ServiceConfig(window=60.0, workers=2, pipeline_depth=2)
        stats = StreamingService(DiTileAccelerator(), config).serve(
            stream, SPEC
        ).stats
        assert stats.prefetch_stall_s >= 0.0
        assert stats.collect_stall_s >= 0.0
        assert 0.0 <= stats.overlap_ratio <= 1.0
        assert stats.pipeline_depth == 2
        assert 1 <= stats.max_inflight_batches <= 2
        assert "pipeline" in stats.summary()

    def test_overlap_ratio_edge_cases(self):
        from repro.serving.stats import ServiceStats

        stats = ServiceStats()
        assert stats.overlap_ratio == 0.0  # no execution at all
        stats.execute_s = 2.0
        stats.collect_stall_s = 0.5
        assert stats.overlap_ratio == 0.75
        stats.collect_stall_s = 5.0  # stall can exceed execute (clamped)
        assert stats.overlap_ratio == 0.0


# ---------------------------------------------------------------------------
# LRU-bounded library caches (satellite)
# ---------------------------------------------------------------------------
class TestBoundedLibraryCaches:
    def test_ditile_plan_cache_is_bounded(self):
        model = DiTileAccelerator(plan_cache_capacity=3)
        for seed in range(6):
            model.plan(_transition(40, seed=seed), SPEC)
        assert len(model._plan_cache) == 3
        assert model._plan_cache.stats.evictions == 3

    def test_ditile_plan_cache_still_memoizes(self):
        model = DiTileAccelerator()
        graph = _transition(40)
        assert model.plan(graph, SPEC) is model.plan(graph, SPEC)

    def test_changed_cache_is_bounded(self):
        snaps = [
            GraphSnapshot.from_edges(6, [(t % 5, (t + 1) % 5)]) for t in range(8)
        ]
        graph = DynamicGraph(snaps, changed_cache_capacity=2)
        for t in range(8):
            graph.changed_vertices(t)
        assert len(graph._changed_cache) == 2

    def test_changed_cache_results_stable_under_eviction(self):
        snaps = [
            GraphSnapshot.from_edges(6, [(t % 5, (t + 1) % 5)]) for t in range(6)
        ]
        bounded = DynamicGraph(snaps, changed_cache_capacity=1)
        unbounded = DynamicGraph(snaps)
        for t in range(6):
            np.testing.assert_array_equal(
                bounded.changed_vertices(t), unbounded.changed_vertices(t)
            )
        # Recompute after eviction must agree with the first computation.
        np.testing.assert_array_equal(
            bounded.changed_vertices(1), unbounded.changed_vertices(1)
        )
