"""Tests for repro.dist: sharded multi-process serving.

The load-bearing assertion is parity: per-window results of the sharded
service are bit-identical to the single-process service and the offline
reference for *any* shard count, including under deterministic worker
crashes.  Around it: cut-edge accounting against single-process edge
totals on every dataset fixture, router/ingestor decision parity, the
shared-memory segment protocol, and restart/teardown hygiene.
"""

import _posixshmem
import json
import multiprocessing
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.plan import DGNNSpec
from repro.dist import (
    EventRouter,
    SegmentSpec,
    ShardedConfig,
    ShardedService,
    attach_segment,
    segment_name,
    unlink_segment,
    write_segment,
)
from repro.durability.recovery import reclaim_stale_run
from repro.durability.wal import LockInfo
from repro.graphs.continuous import ContinuousDynamicGraph, EdgeEvent
from repro.graphs.datasets import TABLE1_DATASETS, load_dataset
from repro.graphs.partition import hash_vertex_partition
from repro.resilience.chaos import ChaosSchedule, run_chaos
from repro.serving import (
    ServiceConfig,
    StreamingService,
    serve_offline,
    synthetic_event_stream,
)
from repro.serving.ingest import ShardedWindowBuilder, WindowedIngestor
from repro.serving.streams import stream_from_dataset

SPEC = DGNNSpec(gcn_dims=(8, 8), rnn_hidden_dim=8)


@pytest.fixture(scope="module")
def stream():
    return synthetic_event_stream(num_vertices=64, num_events=1500, seed=3)


@pytest.fixture(scope="module")
def service_config(stream):
    first, last = stream.time_span
    return ServiceConfig(window=(last - first) / 10, workers=2)


@pytest.fixture(scope="module")
def offline(stream, service_config):
    return serve_offline(stream, SPEC, config=service_config)


def _assert_no_leaks(service):
    assert not multiprocessing.active_children()
    if sys.platform.startswith("linux") and Path("/dev/shm").is_dir():
        leaked = list(Path("/dev/shm").glob(f"{service._session}*"))
        assert leaked == [], f"leaked shared-memory segments: {leaked}"


class TestParitySweep:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_bit_identical_to_offline(self, stream, service_config, offline, shards):
        service = ShardedService(
            config=ShardedConfig(shards=shards, service=service_config)
        )
        report = service.serve(stream, SPEC)
        assert report.results == offline
        assert report.stats.shards == shards
        assert report.stats.restarts == 0
        _assert_no_leaks(service)

    def test_matches_single_process_service(self, stream, service_config, offline):
        report = StreamingService(config=service_config).serve(stream, SPEC)
        assert report.results == offline

    def test_partition_seed_changes_routing_not_results(
        self, stream, service_config, offline
    ):
        reports = [
            ShardedService(
                config=ShardedConfig(
                    shards=3, service=service_config, partition_seed=seed
                )
            ).serve(stream, SPEC)
            for seed in (0, 99)
        ]
        for report in reports:
            assert report.results == offline
        per_shard = [
            tuple(s.events for s in report.stats.shard_stats) for report in reports
        ]
        assert per_shard[0] != per_shard[1]  # the partition really moved

    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_pipeline_depth_parity(
        self, stream, service_config, offline, depth, shards
    ):
        """The tentpole sweep: results are bit-identical to the offline
        reference for every pipeline depth x shard count combination."""
        service = ShardedService(
            config=ShardedConfig(
                shards=shards,
                service=replace(service_config, pipeline_depth=depth),
            )
        )
        report = service.serve(stream, SPEC)
        assert report.results == offline
        assert report.stats.pipeline_depth == depth
        assert 1 <= report.stats.max_inflight_batches <= depth
        _assert_no_leaks(service)

    def test_stats_counters_match_single_process(self, stream, service_config):
        single = StreamingService(config=service_config).serve(stream, SPEC).stats
        sharded = (
            ShardedService(config=ShardedConfig(shards=2, service=service_config))
            .serve(stream, SPEC)
            .stats
        )
        for counter in ("windows", "events", "late_events", "plan_hits",
                        "plan_misses", "plan_replans"):
            assert getattr(sharded, counter) == getattr(single, counter), counter


class TestEdgeAccounting:
    def test_synthetic_invariant_every_window(self, stream, service_config):
        report = ShardedService(
            config=ShardedConfig(shards=4, service=service_config)
        ).serve(stream, SPEC)
        accounts = report.stats.edge_accounts
        assert len(accounts) == report.num_windows
        for account in accounts:
            assert len(account.shard_edges) == 4
            assert account.total_shard_edges == account.global_edges
            for cut, owned in zip(account.cut_edges, account.shard_edges):
                assert 0 <= cut <= owned

    # Scales chosen so every Table 1 dataset shrinks to a few hundred
    # vertices (the big ones get proportionally smaller factors).
    SCALES = {"PM": 0.05, "RD": 0.005, "MB": 0.0012, "TW": 0.02,
              "WD": 0.02, "FK": 0.0002}

    @pytest.mark.parametrize("abbrev", sorted(SCALES))
    def test_dataset_totals_match_single_process(self, abbrev):
        scale = self.SCALES[abbrev]
        graph = load_dataset(abbrev, scale=scale, snapshots=3, seed=7)
        replay = stream_from_dataset(abbrev, scale=scale, snapshots=3, seed=7)
        config = ServiceConfig(window=1.0, origin=0.0, workers=0)
        report = ShardedService(
            config=ShardedConfig(shards=3, service=config)
        ).serve(replay, DGNNSpec.classic(graph.feature_dim, hidden_dim=16))
        accounts = report.stats.edge_accounts
        # Replay events land at integer times 1..T-1, one transition per
        # snapshot boundary, so window k reproduces snapshot k+1.
        assert len(accounts) == graph.num_snapshots - 1
        for account, snapshot in zip(accounts, graph.snapshots[1:]):
            # Shard-owned edges sum exactly to the single-process
            # (= offline dataset) edge total, window by window.
            assert account.total_shard_edges == snapshot.num_edges
            assert account.global_edges == snapshot.num_edges

    def test_single_shard_has_no_cut_edges(self, stream, service_config):
        report = ShardedService(
            config=ShardedConfig(shards=1, service=service_config)
        ).serve(stream, SPEC)
        assert report.stats.cut_edges_final == 0
        for account in report.stats.edge_accounts:
            assert account.total_cut_edges == 0


class TestMoreShardsThanVertices:
    def test_parity_with_empty_shards(self):
        stream = synthetic_event_stream(num_vertices=5, num_events=120, seed=1)
        first, last = stream.time_span
        config = ServiceConfig(window=(last - first) / 4, workers=0)
        offline = serve_offline(stream, SPEC, config=config)
        report = ShardedService(
            config=ShardedConfig(shards=8, service=config)
        ).serve(stream, SPEC)
        assert report.results == offline
        # At most 5 shards can own a vertex; the rest served empty deltas.
        owning = sum(1 for s in report.stats.shard_stats if s.events)
        assert owning <= 5


class TestRestart:
    def test_crash_restart_preserves_parity(self, stream, service_config, offline):
        service = ShardedService(
            config=ShardedConfig(
                shards=3,
                service=service_config,
                crash_windows=((1, 3), (0, 6)),
                max_restarts=4,
            )
        )
        report = service.serve(stream, SPEC)
        assert report.results == offline
        assert report.stats.restarts == 2
        generations = sorted(s.generation for s in report.stats.shard_stats)
        assert generations == [0, 1, 1]
        _assert_no_leaks(service)

    def test_crash_mid_prefetch_preserves_parity(
        self, stream, service_config, offline
    ):
        """Worker death while the pipeline holds batches in flight (and
        the shards are prefetching ahead of the merge) must be invisible:
        results byte-identical to the serialized path, nothing leaked."""
        service = ShardedService(
            config=ShardedConfig(
                shards=3,
                service=replace(
                    service_config, pipeline_depth=4, max_batch_windows=2
                ),
                crash_windows=((1, 3), (0, 6)),
                max_restarts=4,
            )
        )
        report = service.serve(stream, SPEC)
        assert report.results == offline
        assert report.stats.restarts == 2
        _assert_no_leaks(service)

    def test_restart_budget_exhaustion_raises(self, stream, service_config):
        service = ShardedService(
            config=ShardedConfig(
                shards=2,
                service=service_config,
                crash_windows=((0, 1),),
                max_restarts=0,
            )
        )
        with pytest.raises(RuntimeError, match="restart"):
            service.serve(stream, SPEC)
        _assert_no_leaks(service)


class TestChaosSharded:
    def test_chaos_report_byte_identical_across_shard_counts(self):
        stream = synthetic_event_stream(num_vertices=48, num_events=600, seed=5)
        first, last = stream.time_span
        config = None  # run_chaos supplies the resilient default
        schedule = ChaosSchedule(
            seed=11, crash_rate=0.2, latency_rate=0.1,
            latency_s=0.0002, poison_rate=0.05,
        )
        reports = {}
        for shards in (0, 1, 2):
            _, chaos = run_chaos(stream, SPEC, schedule, config=config,
                                 shards=shards)
            reports[shards] = chaos.to_json()
        assert reports[0] == reports[1] == reports[2]
        json.loads(reports[0])  # stays well-formed

    def test_chaos_report_byte_identical_across_pipeline_depths(self):
        """The chaos harness under the overlapped pipeline: fault
        injection keyed by (window, attempt) cannot see dispatch timing,
        so the deterministic report byte-compares against the serialized
        (depth-1) path, single-process and sharded alike."""
        from repro.resilience import BreakerConfig, RetryPolicy

        stream = synthetic_event_stream(num_vertices=48, num_events=600, seed=5)
        schedule = ChaosSchedule(
            seed=11, crash_rate=0.2, latency_rate=0.1,
            latency_s=0.0002, poison_rate=0.05,
        )
        reports = {}
        for depth in (1, 2, 4):
            config = ServiceConfig(
                pipeline_depth=depth,
                retry=RetryPolicy(max_attempts=4, backoff_s=0.0005),
                breaker=BreakerConfig(),
                quarantine=True,
            )
            for shards in (0, 2):
                _, chaos = run_chaos(stream, SPEC, schedule, config=config,
                                     shards=shards)
                reports[(depth, shards)] = chaos.to_json()
        reference = reports[(1, 0)]
        assert all(r == reference for r in reports.values())


class TestEventRouter:
    def _ingestor_reference(self, events, num_vertices, window, **kwargs):
        ingestor = WindowedIngestor(num_vertices, window, **kwargs)
        return list(ingestor.windows(events))

    def test_matches_ingestor_counters(self, stream, service_config):
        partition = hash_vertex_partition(stream.num_vertices, 4, seed=0)
        router = EventRouter(
            partition, num_vertices=stream.num_vertices,
            window=service_config.window,
        )
        routing = router.route(stream.events)
        windows = self._ingestor_reference(
            stream.events, stream.num_vertices, service_config.window
        )
        assert routing.num_windows == len(windows)
        assert routing.total_events == len(stream.events)
        assert sum(routing.shard_events) + routing.late_events == len(stream.events)
        assert sum(w.num_events for w in windows) == sum(routing.shard_events)

    def test_routes_by_destination_vertex(self):
        partition = hash_vertex_partition(16, 3, seed=2)
        events = [EdgeEvent(float(t), t % 16, (t * 7) % 16) for t in range(40)]
        routing = EventRouter(partition, num_vertices=16, window=10.0).route(events)
        for shard, routed in enumerate(routing.routed):
            for index, event in routed:
                assert partition.assignment[event.dst] == shard
                assert index >= 0

    def test_late_events_counted_not_routed(self):
        partition = hash_vertex_partition(8, 2, seed=0)
        events = [
            EdgeEvent(0.5, 0, 1),
            EdgeEvent(5.5, 1, 2),   # opens window 5
            EdgeEvent(0.7, 2, 3),   # late: window 0 already passed
        ]
        routing = EventRouter(partition, num_vertices=8, window=1.0).route(events)
        assert routing.late_events == 1
        assert sum(routing.shard_events) == 2

    def test_strict_time_order_raises_on_late(self):
        partition = hash_vertex_partition(8, 2, seed=0)
        events = [
            EdgeEvent(0.5, 0, 1),
            EdgeEvent(5.5, 1, 2),   # opens window 5
            EdgeEvent(0.7, 2, 3),   # late: window 0 already closed
        ]
        router = EventRouter(
            partition, num_vertices=8, window=1.0, strict_time_order=True
        )
        with pytest.raises(ValueError, match="late event"):
            router.route(events)

    def test_quarantine_dead_letters_malformed(self):
        partition = hash_vertex_partition(8, 2, seed=0)
        events = [EdgeEvent(0.0, 0, 1), EdgeEvent(0.1, 0, 99)]  # dst outside
        router = EventRouter(
            partition, num_vertices=8, window=1.0, quarantine=True
        )
        routing = router.route(events)
        assert routing.quarantined_events == 1
        assert routing.rejected[0].position == 1
        assert sum(routing.shard_events) == 1

    def test_malformed_raises_without_quarantine(self):
        partition = hash_vertex_partition(8, 2, seed=0)
        router = EventRouter(partition, num_vertices=8, window=1.0)
        with pytest.raises(ValueError, match="malformed"):
            router.route([EdgeEvent(0.0, 0, 99)])

    def test_empty_stream_serves_one_window(self):
        partition = hash_vertex_partition(8, 2, seed=0)
        routing = EventRouter(partition, num_vertices=8, window=1.0).route([])
        assert routing.num_windows == 1
        assert routing.origin == 0.0
        assert routing.shard_events == [0, 0]

    def test_rejects_undersized_partition(self):
        partition = hash_vertex_partition(4, 2, seed=0)
        with pytest.raises(ValueError, match="cover"):
            EventRouter(partition, num_vertices=8, window=1.0)


class TestShardedWindowBuilder:
    def test_pads_gaps_and_trailing_windows(self):
        builder = ShardedWindowBuilder(num_vertices=8, window=1.0)
        routed = [(0, EdgeEvent(0.5, 0, 1)), (3, EdgeEvent(3.5, 1, 2))]
        windows = list(builder.build(routed, end_window=6))
        assert [w.index for w in windows] == [0, 1, 2, 3, 4, 5]
        assert [w.num_events for w in windows] == [1, 0, 0, 1, 0, 0]
        assert windows[1].snapshot.num_edges == windows[0].snapshot.num_edges
        assert windows[3].snapshot.num_edges == 2
        assert windows[0].close_time == 1.0
        assert windows[5].close_time == 6.0

    def test_out_of_order_index_raises(self):
        builder = ShardedWindowBuilder(num_vertices=8, window=1.0)
        routed = [(2, EdgeEvent(2.5, 0, 1)), (1, EdgeEvent(1.5, 1, 2))]
        with pytest.raises(ValueError):
            list(builder.build(routed, end_window=4))

    def test_start_window_resumes_mid_stream(self):
        builder = ShardedWindowBuilder(num_vertices=8, window=1.0, start_window=2)
        windows = list(builder.build([(2, EdgeEvent(2.5, 0, 1))], end_window=4))
        assert [w.index for w in windows] == [2, 3]


class TestSharedMemory:
    def test_write_attach_roundtrip(self):
        name = segment_name("rdtest0", 0, 0, 0)
        arrays = [
            ("a", np.arange(5, dtype=np.int64)),
            ("b", np.array([], dtype=np.int64)),
            ("c", np.array([7, -3], dtype=np.int64)),
        ]
        spec = write_segment(name, arrays)
        assert spec.fields == (("a", 5), ("b", 0), ("c", 2))
        assert spec.nbytes == 7 * 8
        with attach_segment(spec) as views:
            np.testing.assert_array_equal(views["a"], np.arange(5))
            assert views["b"].size == 0
            np.testing.assert_array_equal(views["c"], [7, -3])
            copied = views["c"] + 0  # derived arrays may outlive the block
        np.testing.assert_array_equal(copied, [7, -3])
        assert unlink_segment(name) is True
        assert unlink_segment(name) is False  # second unlink is a no-op

    def test_empty_segment_roundtrip(self):
        name = segment_name("rdtest0", 1, 0, 0)
        spec = write_segment(name, [("x", np.array([], dtype=np.int64))])
        assert spec.nbytes == 0
        with attach_segment(spec) as views:
            assert views["x"].size == 0
        assert unlink_segment(name) is True

    @pytest.mark.skipif(
        not Path("/dev/shm").is_dir(), reason="needs POSIX shared memory"
    )
    def test_sweep_unlinks_zero_length_orphan(self):
        # A worker SIGKILLed between shm_open and ftruncate leaves a
        # zero-length segment, which cannot be mapped.
        empty = segment_name("rdtest1", 0, 0, 0)
        fd = _posixshmem.shm_open(
            "/" + empty, os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600
        )
        os.close(fd)
        write_segment(segment_name("rdtest1", 0, 0, 1), [("x", np.arange(3))])
        killed, swept = reclaim_stale_run(
            LockInfo(pid=0, session="rdtest1", shards=1, num_windows=3)
        )
        assert (killed, swept) == (0, 2)
        assert list(Path("/dev/shm").glob("rdtest1*")) == []
        assert unlink_segment(empty) is False

    def test_segment_names_are_unique_per_coordinate(self):
        names = {
            segment_name("s", shard, gen, window)
            for shard in range(3) for gen in range(3) for window in range(3)
        }
        assert len(names) == 27


class TestShardedConfig:
    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedConfig(shards=0)

    def test_rejects_nonpositive_heartbeat(self):
        with pytest.raises(ValueError, match="heartbeat"):
            ShardedConfig(heartbeat_s=0.0)

    def test_rejects_negative_restart_budget(self):
        with pytest.raises(ValueError, match="max_restarts"):
            ShardedConfig(max_restarts=-1)

    def test_rejects_load_shedding(self):
        with pytest.raises(ValueError, match="load_shedding"):
            ShardedConfig(service=ServiceConfig(load_shedding=True))


class TestDatasetFixtureSweep:
    def test_all_table1_abbrevs_have_a_scale(self):
        assert sorted(TestEdgeAccounting.SCALES) == sorted(
            p.abbrev for p in TABLE1_DATASETS
        )
