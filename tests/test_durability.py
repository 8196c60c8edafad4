"""Tests for repro.durability: WAL, checkpoints, crash-consistent recovery.

The load-bearing assertion mirrors the durability invariant: a run
crashed at *any* window boundary and resumed produces per-window results
byte-identical to the uninterrupted run, for any shard count and
pipeline depth.  Around it: the WAL edge cases (torn tail, mid-log
corruption, empty segments, rotation), the run lock's stale-owner
protocol, checkpoint atomicity/retention/fallback, the SIGKILL chaos
fault class with deterministic restart backoff, the ``repro chaos
recover`` harness, and the SLO restart-budget integration.
"""

import json
import multiprocessing
import os
import signal
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cli import _window_results_json
from repro.core.plan import DGNNSpec
from repro.dist import ShardedConfig, ShardedService
from repro.durability import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    DurabilityConfig,
    DurableRun,
    RunLock,
    SimulatedCrash,
    WalCorruptionError,
    WalLockedError,
    WriteAheadLog,
    run_recover_sweep,
)
from repro.durability.wal import LockInfo
from repro.graphs.continuous import EdgeEvent
from repro.obs.slo import SLOMonitor
from repro.resilience.chaos import ChaosSchedule, ShardKillSchedule, run_chaos
from repro.resilience.policies import RetryPolicy
from repro.serving import ServiceConfig, StreamingService, synthetic_event_stream

SPEC = DGNNSpec(gcn_dims=(8, 8), rnn_hidden_dim=8)
WINDOW = 40.0  # 15 windows over the 600-event synthetic stream


@pytest.fixture(scope="module")
def stream():
    return synthetic_event_stream(
        num_vertices=64, num_events=600, seed=7, remove_fraction=0.25
    )


@pytest.fixture(scope="module")
def config():
    return ServiceConfig(window=WINDOW, workers=2)


@pytest.fixture(scope="module")
def reference_json(stream, config):
    """Per-window results of the uninterrupted, non-durable run."""
    report = StreamingService(config=config).serve(stream, SPEC)
    return _window_results_json(report)


def _events(n, start=0.0, step=1.0):
    return [
        EdgeEvent(start + i * step, i % 7, (i + 3) % 7, "add") for i in range(n)
    ]


def _serve(stream, config, shards=0):
    if shards >= 1:
        sharded = ShardedConfig(shards=shards, service=config)
        return ShardedService(config=sharded).serve(stream, SPEC)
    return StreamingService(config=config).serve(stream, SPEC)


# ---------------------------------------------------------------------------
# WAL
# ---------------------------------------------------------------------------
class TestWriteAheadLog:
    def test_roundtrip(self, tmp_path):
        wal, records = WriteAheadLog.open(tmp_path, fsync=False)
        assert records == []
        events = _events(5)
        for pos, event in enumerate(events):
            wal.append(pos, event)
        wal.sync()
        wal.close()
        _, replayed = WriteAheadLog.open(tmp_path, fsync=False)
        assert [p for p, _ in replayed] == [0, 1, 2, 3, 4]
        assert [e for _, e in replayed] == events

    def test_rotation_seals_segments(self, tmp_path):
        wal, _ = WriteAheadLog.open(tmp_path, segment_bytes=64, fsync=False)
        for pos, event in enumerate(_events(20)):
            wal.append(pos, event)
        wal.close()
        sealed = sorted(p.name for p in tmp_path.glob("wal-*.seg"))
        assert len(sealed) >= 2
        assert sealed[0] == "wal-000000.seg"
        _, replayed = WriteAheadLog.open(tmp_path, fsync=False)
        assert [p for p, _ in replayed] == list(range(20))

    def test_torn_final_record_is_truncated(self, tmp_path):
        wal, _ = WriteAheadLog.open(tmp_path, fsync=False)
        for pos, event in enumerate(_events(4)):
            wal.append(pos, event)
        wal.close()
        tail = next(tmp_path.glob("wal-*.seg.open"))
        data = tail.read_bytes()
        tail.write_bytes(data[:-7])  # tear the last record mid-payload
        wal, replayed = WriteAheadLog.open(tmp_path, fsync=False)
        assert [p for p, _ in replayed] == [0, 1, 2]
        # The torn suffix is gone from disk and appends continue cleanly.
        wal.append(3, _events(1)[0])
        wal.close()
        _, again = WriteAheadLog.open(tmp_path, fsync=False)
        assert [p for p, _ in again] == [0, 1, 2, 3]

    def test_corrupt_tail_checksum_is_truncated(self, tmp_path):
        wal, _ = WriteAheadLog.open(tmp_path, fsync=False)
        for pos, event in enumerate(_events(3)):
            wal.append(pos, event)
        wal.close()
        tail = next(tmp_path.glob("wal-*.seg.open"))
        data = bytearray(tail.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the final record
        tail.write_bytes(bytes(data))
        _, replayed = WriteAheadLog.open(tmp_path, fsync=False)
        assert [p for p, _ in replayed] == [0, 1]

    def test_corrupt_sealed_segment_raises(self, tmp_path):
        wal, _ = WriteAheadLog.open(tmp_path, segment_bytes=64, fsync=False)
        for pos, event in enumerate(_events(20)):
            wal.append(pos, event)
        wal.close()
        sealed = sorted(tmp_path.glob("wal-*.seg"))[0]
        data = bytearray(sealed.read_bytes())
        data[10] ^= 0xFF
        sealed.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError, match="sealed segment"):
            WriteAheadLog.open(tmp_path, fsync=False)

    def test_empty_open_segment(self, tmp_path):
        (tmp_path / "wal-000000.seg.open").write_bytes(b"")
        wal, replayed = WriteAheadLog.open(tmp_path, fsync=False)
        assert replayed == []
        wal.append(0, _events(1)[0])
        wal.close()
        _, again = WriteAheadLog.open(tmp_path, fsync=False)
        assert [p for p, _ in again] == [0]

    def test_append_after_close_rejected(self, tmp_path):
        wal, _ = WriteAheadLog.open(tmp_path, fsync=False)
        wal.close()
        with pytest.raises(ValueError, match="closed"):
            wal.append(0, _events(1)[0])


# ---------------------------------------------------------------------------
# Run lock
# ---------------------------------------------------------------------------
class TestRunLock:
    def test_acquire_release_roundtrip(self, tmp_path):
        lock = RunLock(tmp_path / "LOCK")
        assert lock.acquire(LockInfo(pid=os.getpid())) is None
        assert (tmp_path / "LOCK").exists()
        lock.release()
        assert not (tmp_path / "LOCK").exists()

    def test_live_owner_blocks(self, tmp_path):
        first = RunLock(tmp_path / "LOCK")
        first.acquire(LockInfo(pid=os.getpid()))
        second = RunLock(tmp_path / "LOCK")
        with pytest.raises(WalLockedError, match="live pid"):
            second.acquire(LockInfo(pid=os.getpid()))
        first.release()

    def test_dead_owner_is_reclaimed(self, tmp_path):
        proc = multiprocessing.get_context("fork").Process(target=lambda: None)
        proc.start()
        proc.join()
        dead = LockInfo(pid=proc.pid, session="rdDEAD", shards=2)
        (tmp_path / "LOCK").write_text(dead.to_json())
        lock = RunLock(tmp_path / "LOCK")
        stale = lock.acquire(LockInfo(pid=os.getpid()))
        assert stale is not None
        assert stale.pid == proc.pid
        assert stale.session == "rdDEAD"
        lock.release()

    def test_torn_lock_body_counts_as_stale(self, tmp_path):
        (tmp_path / "LOCK").write_text('{"pid": 12')
        lock = RunLock(tmp_path / "LOCK")
        assert lock.acquire(LockInfo(pid=os.getpid())) is None
        lock.release()


# ---------------------------------------------------------------------------
# Checkpoint store
# ---------------------------------------------------------------------------
def _checkpoint(watermark, tag="x"):
    return Checkpoint(
        watermark=watermark,
        snapshot={"tag": tag},
        plan_state={"entries": []},
        results=[tag] * watermark,
        counters={"events": watermark * 10},
    )


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path, fsync=False)
        store.save(_checkpoint(3, tag="a"))
        loaded = store.load_latest()
        assert loaded is not None
        assert loaded.watermark == 3
        assert loaded.snapshot == {"tag": "a"}
        assert loaded.results == ["a", "a", "a"]

    def test_retention_prunes_oldest(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=2, fsync=False)
        for w in (1, 2, 3):
            store.save(_checkpoint(w))
        names = sorted(p.name for p in tmp_path.glob("ckpt-*.bin"))
        assert names == ["ckpt-00000002.bin", "ckpt-00000003.bin"]
        assert not list(tmp_path.glob("*.tmp"))

    def test_corrupt_newest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path, fsync=False)
        store.save(_checkpoint(1, tag="old"))
        newest = store.save(_checkpoint(2, tag="new"))
        data = bytearray(newest.read_bytes())
        data[-3] ^= 0xFF
        newest.write_bytes(bytes(data))
        loaded = store.load_latest()
        assert loaded is not None
        assert loaded.watermark == 1
        assert loaded.snapshot == {"tag": "old"}

    def test_all_corrupt_returns_none(self, tmp_path):
        store = CheckpointStore(tmp_path, fsync=False)
        path = store.save(_checkpoint(1))
        path.write_bytes(b"not a checkpoint")
        assert store.load_latest() is None

    def test_strict_load_raises_on_bad_magic(self, tmp_path):
        store = CheckpointStore(tmp_path, fsync=False)
        path = store.save(_checkpoint(1))
        path.write_bytes(b"XXXXXXXX" + path.read_bytes()[8:])
        with pytest.raises(CheckpointError, match="magic"):
            store.load(path)


# ---------------------------------------------------------------------------
# Durable serving: parity and crash-point sweeps
# ---------------------------------------------------------------------------
class TestDurableServing:
    def test_durable_run_matches_plain_run(
        self, stream, config, reference_json, tmp_path
    ):
        durable = replace(
            config,
            durability=DurabilityConfig(directory=tmp_path, fsync=False),
        )
        report = _serve(stream, durable)
        assert _window_results_json(report) == reference_json
        assert report.stats.wal_records == stream.num_events
        assert report.stats.checkpoints == len(report.results)
        assert report.stats.resumes == 0

    def test_reusing_directory_without_resume_is_refused(
        self, stream, config, tmp_path
    ):
        durable = replace(
            config,
            durability=DurabilityConfig(directory=tmp_path, fsync=False),
        )
        _serve(stream, durable)
        with pytest.raises(ValueError, match="--resume"):
            _serve(stream, durable)

    @pytest.mark.parametrize("depth", [1, 4])
    @pytest.mark.parametrize("kill_point", [0, 7, 14])
    def test_crash_point_parity(
        self, stream, config, reference_json, tmp_path, depth, kill_point
    ):
        cfg = replace(config, pipeline_depth=depth)
        reference = reference_json
        if depth != config.pipeline_depth:
            reference = _window_results_json(_serve(stream, cfg))
        crash = replace(
            cfg,
            durability=DurabilityConfig(
                directory=tmp_path, fsync=False, abort_after_commit=kill_point
            ),
        )
        with pytest.raises(SimulatedCrash):
            _serve(stream, crash)
        resumed = _serve(
            stream,
            replace(
                cfg,
                durability=DurabilityConfig(
                    directory=tmp_path, fsync=False, resume=True
                ),
            ),
        )
        assert _window_results_json(resumed) == reference
        assert resumed.stats.resumes == 1
        assert resumed.stats.recovered_windows == kill_point + 1

    def test_sparse_checkpoint_interval_parity(
        self, stream, config, reference_json, tmp_path
    ):
        crash = replace(
            config,
            durability=DurabilityConfig(
                directory=tmp_path,
                fsync=False,
                checkpoint_interval=4,
                abort_after_commit=6,
            ),
        )
        with pytest.raises(SimulatedCrash):
            _serve(stream, crash)
        resumed = _serve(
            stream,
            replace(
                config,
                durability=DurabilityConfig(
                    directory=tmp_path,
                    fsync=False,
                    checkpoint_interval=4,
                    resume=True,
                ),
            ),
        )
        assert _window_results_json(resumed) == reference_json
        # Watermark snaps back to the last checkpoint cadence boundary.
        assert resumed.stats.recovered_windows == 4
        assert resumed.stats.replayed_windows >= 3

    def test_checkpoint_newer_than_wal_tail(
        self, stream, config, reference_json, tmp_path
    ):
        crash = replace(
            config,
            durability=DurabilityConfig(
                directory=tmp_path, fsync=False, abort_after_commit=9
            ),
        )
        with pytest.raises(SimulatedCrash):
            _serve(stream, crash)
        # Hand-delete the WAL: the checkpoint now claims more progress
        # than the (empty) log.  Recovery re-consumes the missing events
        # from the live source and still byte-matches.
        for path in (tmp_path / "wal").glob("wal-*"):
            path.unlink()
        resumed = _serve(
            stream,
            replace(
                config,
                durability=DurabilityConfig(
                    directory=tmp_path, fsync=False, resume=True
                ),
            ),
        )
        assert _window_results_json(resumed) == reference_json
        assert resumed.stats.recovered_windows == 10
        assert resumed.stats.replayed_windows == 0

    def test_resume_after_clean_completion(
        self, stream, config, reference_json, tmp_path
    ):
        durable = replace(
            config,
            durability=DurabilityConfig(directory=tmp_path, fsync=False),
        )
        _serve(stream, durable)
        resumed = _serve(
            stream,
            replace(
                config,
                durability=DurabilityConfig(
                    directory=tmp_path, fsync=False, resume=True
                ),
            ),
        )
        assert _window_results_json(resumed) == reference_json
        assert resumed.stats.recovered_windows == len(resumed.results)

    @pytest.mark.parametrize(
        "change",
        [{"window": WINDOW / 2}, {"origin": -17.0}],
        ids=["window", "origin"],
    )
    def test_mismatched_window_is_refused(self, stream, config, tmp_path, change):
        durable = replace(
            config,
            durability=DurabilityConfig(directory=tmp_path, fsync=False),
        )
        _serve(stream, durable)
        other = replace(
            config,
            **change,
            durability=DurabilityConfig(
                directory=tmp_path, fsync=False, resume=True
            ),
        )
        with pytest.raises(ValueError, match="refusing to mix"):
            _serve(stream, other)

    def test_older_checkpoint_format_is_replayed(
        self, stream, config, reference_json, tmp_path
    ):
        crash = replace(
            config,
            durability=DurabilityConfig(
                directory=tmp_path, fsync=False, abort_after_commit=7
            ),
        )
        with pytest.raises(SimulatedCrash):
            _serve(stream, crash)
        # Stamp every checkpoint with the previous format's magic: resume
        # must skip them all and rebuild the run from the WAL alone.
        paths = list(crash.durability.checkpoint_dir.glob("ckpt-*.bin"))
        assert paths
        for path in paths:
            path.write_bytes(b"RDCKPT1\n" + path.read_bytes()[8:])
        resumed = _serve(
            stream,
            replace(
                config,
                durability=DurabilityConfig(
                    directory=tmp_path, fsync=False, resume=True
                ),
            ),
        )
        assert _window_results_json(resumed) == reference_json
        assert resumed.stats.recovered_windows == 0

    def test_resume_with_quarantined_poison(self, stream, config, tmp_path):
        # Chaos poison is logged before ingest validates it, so the WAL
        # holds NaN-time and out-of-range records that resume must skip.
        poisoned = replace(
            config,
            chaos=ChaosSchedule(seed=5, poison_rate=0.05),
            quarantine=True,
        )
        reference = _serve(stream, poisoned)
        assert reference.stats.quarantined_events > 0
        crash = replace(
            poisoned,
            durability=DurabilityConfig(
                directory=tmp_path, fsync=False, abort_after_commit=7
            ),
        )
        with pytest.raises(SimulatedCrash):
            _serve(stream, crash)
        resumed = _serve(
            stream,
            replace(
                poisoned,
                durability=DurabilityConfig(
                    directory=tmp_path, fsync=False, resume=True
                ),
            ),
        )
        assert _window_results_json(resumed) == _window_results_json(reference)
        assert (
            resumed.stats.quarantined_events
            == reference.stats.quarantined_events
        )
        assert resumed.stats.resumes == 1

    def test_replayed_windows_skip_malformed_records(self, tmp_path):
        wal, _ = WriteAheadLog.open(tmp_path / "wal", fsync=False)
        records = [
            EdgeEvent(-3.0, 0, 1),  # negative time: must not anchor the origin
            EdgeEvent(0.5, 0, 1),
            EdgeEvent(float("nan"), 0, 0),  # would break window_index
            EdgeEvent(5.0, 9, 0),  # outside the 4-vertex space
            EdgeEvent(2.5, 1, 2),
        ]
        for position, event in enumerate(records):
            wal.append(position, event)
        wal.close()
        run = DurableRun(
            DurabilityConfig(directory=tmp_path, fsync=False, resume=True),
            window=1.0,
            num_vertices=4,
        ).start()
        try:
            # Origin 0.5: the valid events fall in windows 0 and 1.
            assert run.replayed_windows == 2
        finally:
            run.close()


class TestShardedDurability:
    @pytest.mark.parametrize("shards, depth, kill_point", [(2, 1, 4), (2, 4, 11)])
    def test_sharded_crash_point_parity(
        self, stream, config, tmp_path, shards, depth, kill_point
    ):
        cfg = replace(config, pipeline_depth=depth)
        reference = _window_results_json(_serve(stream, cfg, shards=shards))
        crash = replace(
            cfg,
            durability=DurabilityConfig(
                directory=tmp_path, fsync=False, abort_after_commit=kill_point
            ),
        )
        with pytest.raises(SimulatedCrash):
            _serve(stream, crash, shards=shards)
        resumed = _serve(
            stream,
            replace(
                cfg,
                durability=DurabilityConfig(
                    directory=tmp_path, fsync=False, resume=True
                ),
            ),
            shards=shards,
        )
        assert _window_results_json(resumed) == reference
        assert resumed.stats.resumes == 1
        assert resumed.stats.recovered_windows == kill_point + 1
        # Per-shard counters are rebuilt from the checkpointed window
        # accounting: every shard serves every window, recovered or not.
        assert all(
            s.windows == len(resumed.results)
            for s in resumed.stats.shard_stats
        )

    def test_sharded_matches_single_process(self, stream, config, tmp_path):
        durable = replace(
            config,
            durability=DurabilityConfig(directory=tmp_path, fsync=False),
        )
        sharded = _serve(stream, durable, shards=2)
        plain = _serve(stream, config)
        assert _window_results_json(sharded) == _window_results_json(plain)


# ---------------------------------------------------------------------------
# Recovery harness (real SIGKILL)
# ---------------------------------------------------------------------------
class TestRecoverHarness:
    def test_single_process_sigkill_sweep(self, stream, config, tmp_path):
        report, _ = run_recover_sweep(
            stream, SPEC, config=config, kill_points=[7], root=str(tmp_path)
        )
        assert report.ok
        assert report.exit_code == 0
        (outcome,) = report.outcomes
        assert outcome.exitcode == -signal.SIGKILL
        assert outcome.identical
        assert outcome.recovered_windows == 8

    def test_sharded_sigkill_sweep_and_determinism(self, stream, config, tmp_path):
        first, _ = run_recover_sweep(
            stream,
            SPEC,
            config=config,
            shards=2,
            kill_points=[5],
            root=str(tmp_path / "a"),
        )
        second, _ = run_recover_sweep(
            stream,
            SPEC,
            config=config,
            shards=2,
            kill_points=[5],
            root=str(tmp_path / "b"),
        )
        assert first.ok and second.ok
        assert first.to_json() == second.to_json()

    def test_out_of_range_kill_point_rejected(self, stream, config, tmp_path):
        with pytest.raises(ValueError, match="out of range"):
            run_recover_sweep(
                stream, SPEC, config=config, kill_points=[99], root=str(tmp_path)
            )


# ---------------------------------------------------------------------------
# SIGKILL chaos fault class + deterministic restart backoff
# ---------------------------------------------------------------------------
class TestSigkillChaos:
    def test_schedule_sampling_is_deterministic_and_bounded(self):
        a = ShardKillSchedule.sample(seed=11, shards=2, num_windows=15, kills=2)
        b = ShardKillSchedule.sample(seed=11, shards=2, num_windows=15, kills=2)
        assert a.kills == b.kills
        assert len(a.kills) == 2
        for shard, window in a.kills:
            assert 0 <= shard < 2
            assert 0 <= window < 5  # 15 windows - margin 10

    def test_too_few_windows_schedules_nothing(self):
        empty = ShardKillSchedule.sample(seed=1, shards=2, num_windows=8)
        assert empty.kills == ()

    def test_sigkilled_worker_restarts_without_leaks(self, stream, config):
        cfg = ShardedConfig(
            shards=2,
            service=config,
            sigkill_windows=((0, 3),),
            max_restarts=3,
            restart_backoff_s=0.001,
            restart_backoff_cap_s=0.004,
        )
        reference = _serve(stream, config, shards=2)
        killed = ShardedService(config=cfg).serve(stream, SPEC)
        assert _window_results_json(killed) == _window_results_json(reference)
        assert killed.stats.sigkills == 1
        assert killed.stats.restarts == 1
        assert sum(s.restart_attempts for s in killed.stats.shard_stats) == 1
        assert killed.stats.as_dict()["sigkills"] == 1
        assert killed.stats.as_dict()["restart_attempts"] == 1

    def test_chaos_report_carries_sigkills(self, stream, config):
        schedule = ChaosSchedule(seed=5)
        kills = ShardKillSchedule(kills=((1, 2),))
        chaos_cfg = replace(
            config, retry=RetryPolicy(max_attempts=4, backoff_s=0.0005)
        )
        _, first = run_chaos(
            stream, SPEC, schedule, config=chaos_cfg, shards=2, shard_kills=kills
        )
        _, second = run_chaos(
            stream, SPEC, schedule, config=chaos_cfg, shards=2, shard_kills=kills
        )
        assert first.sigkills == 1
        assert first.restarts >= 1
        assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
            second.as_dict(), sort_keys=True
        )

    def test_shard_kills_require_sharded_run(self, stream, config):
        schedule = ChaosSchedule(seed=5)
        chaos_cfg = replace(
            config, retry=RetryPolicy(max_attempts=4, backoff_s=0.0005)
        )
        with pytest.raises(ValueError, match="shard"):
            run_chaos(
                stream,
                SPEC,
                schedule,
                config=chaos_cfg,
                shards=0,
                shard_kills=ShardKillSchedule(kills=((0, 1),)),
            )

    def test_backoff_config_validation(self, config):
        with pytest.raises(ValueError):
            ShardedConfig(shards=2, service=config, restart_backoff_s=-1.0)
        with pytest.raises(ValueError):
            ShardedConfig(
                shards=2,
                service=config,
                restart_backoff_s=0.5,
                restart_backoff_cap_s=0.1,
            )


# ---------------------------------------------------------------------------
# SLO integration
# ---------------------------------------------------------------------------
class TestSloRestartBudget:
    def test_resumes_count_against_restart_budget(self):
        stats = SimpleNamespace(restarts=2, resumes=1)
        assert SLOMonitor.observe(stats, "restarts") == 3.0

    def test_single_process_stats_read_zero(self):
        assert SLOMonitor.observe(SimpleNamespace(), "restarts") == 0.0


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------
class TestDurabilityConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            DurabilityConfig(checkpoint_interval=0)
        with pytest.raises(ValueError):
            DurabilityConfig(retain=0)
        with pytest.raises(ValueError):
            DurabilityConfig(segment_bytes=8)

    def test_paths_hang_off_the_root(self, tmp_path):
        cfg = DurabilityConfig(directory=tmp_path)
        assert cfg.wal_dir == tmp_path / "wal"
        assert cfg.checkpoint_dir == tmp_path / "checkpoints"
        assert cfg.lock_path == tmp_path / "LOCK"

    def test_load_shedding_is_incompatible(self):
        with pytest.raises(ValueError):
            ServiceConfig(
                window=1.0,
                load_shedding=True,
                durability=DurabilityConfig(directory="x"),
            )
