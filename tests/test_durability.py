"""Tests for repro.durability: WAL, checkpoints, crash-consistent recovery.

The load-bearing assertion mirrors the durability invariant: a run
crashed at *any* window boundary and resumed produces per-window results
byte-identical to the uninterrupted run, for any pipeline depth.  Around
it: the WAL edge cases (torn tail, mid-log corruption, empty segments,
rotation), the run lock's stale-owner protocol, checkpoint
atomicity/retention/fallback, the ``repro chaos recover`` harness, and
the SLO restart-budget integration.
"""

import itertools
import json
import multiprocessing
import os
import signal
import struct
import sys
import threading
import zlib
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.plan import DGNNSpec
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
from repro.durability.wal import LockInfo, _scan_segment
from repro.graphs.continuous import EdgeEvent, window_index
from repro.obs.slo import SLOMonitor
from repro.resilience import BreakerConfig, ChaosSchedule, RetryPolicy
from repro.serving import (
    PlanManager,
    ServiceConfig,
    StreamingService,
    synthetic_event_stream,
)
from repro.serving.stats import ServiceStats

SPEC = DGNNSpec(gcn_dims=(8, 8), rnn_hidden_dim=8)
WINDOW = 40.0  # 15 windows over the 600-event synthetic stream


def _stream(num_vertices=64):
    return synthetic_event_stream(
        num_vertices=num_vertices, num_events=600, seed=7, remove_fraction=0.25
    )


@pytest.fixture(scope="module")
def stream():
    return _stream()


@pytest.fixture(scope="module")
def config():
    return ServiceConfig(window=WINDOW, workers=2)


@pytest.fixture(scope="module")
def reference_json(stream, config):
    """Per-window results of the uninterrupted, non-durable run."""
    report = StreamingService(config=config).serve(stream, SPEC)
    return report.results_json()


def _events(n, start=0.0, step=1.0):
    return [
        EdgeEvent(start + i * step, i % 7, (i + 3) % 7, "add") for i in range(n)
    ]


def _serve(stream, config, spec=SPEC):
    return StreamingService(config=config).serve(stream, spec)


def _record_at_a_time_segments(records, segment_bytes):
    """The segment files one-record-at-a-time ``struct`` writes produce:
    each record is written, then the segment is sealed once it holds
    ``segment_bytes`` or more."""
    header, payload = struct.Struct("<II"), struct.Struct("<Qdqqb")
    sealed, active = [], b""
    for position, event in records:
        kind = 0 if event.kind == "add" else 1
        body = payload.pack(position, event.time, event.src, event.dst, kind)
        active += header.pack(len(body), zlib.crc32(body)) + body
        if len(active) >= segment_bytes:
            sealed.append(active)
            active = b""
    files = {f"wal-{seq:06d}.seg": data for seq, data in enumerate(sealed)}
    files[f"wal-{len(sealed):06d}.seg.open"] = active
    return files


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

    @pytest.mark.parametrize("segment_bytes", [64, 41 * 3, 1000, 256 * 1024])
    def test_flush_matches_record_at_a_time_encoding(self, tmp_path, segment_bytes):
        events = [
            EdgeEvent(0.5 * i, i % 5, (3 * i) % 7, "remove" if i % 4 == 3 else "add")
            for i in range(60)
        ] + [EdgeEvent(float("nan"), 0, 0), EdgeEvent(1e300, 2**62, 9, "remove")]
        records = list(enumerate(events))
        wal, _ = WriteAheadLog.open(tmp_path, segment_bytes=segment_bytes, fsync=False)
        pending = iter(records)
        for batch in (1, 7, 0, 3, 20, 31):  # appends between flushes
            for position, event in itertools.islice(pending, batch):
                wal.append(position, event)
            wal.flush()
        wal.close()
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert files == _record_at_a_time_segments(records, segment_bytes)

    def test_torn_tail_inside_flushed_batch_is_truncated(self, tmp_path):
        wal, _ = WriteAheadLog.open(tmp_path, fsync=False)
        for pos, event in enumerate(_events(10)):
            wal.append(pos, event)
        wal.flush()
        tail = next(tmp_path.glob("wal-*.seg.open"))
        # flush() hands the batch to the OS; no sync or close is needed.
        data = tail.read_bytes()
        assert len(data) == 10 * 41
        wal.close()
        tail.write_bytes(data[: 6 * 41 + 20])  # tear record 6 mid-payload
        wal, replayed = WriteAheadLog.open(tmp_path, fsync=False)
        assert [p for p, _ in replayed] == list(range(6))
        assert tail.stat().st_size == 6 * 41
        wal.append(6, _events(7)[6])
        wal.close()
        _, again = WriteAheadLog.open(tmp_path, fsync=False)
        assert [p for p, _ in again] == list(range(7))

    def test_corrupt_record_inside_flushed_batch_drops_the_rest(self, tmp_path):
        wal, _ = WriteAheadLog.open(tmp_path, fsync=False)
        for pos, event in enumerate(_events(10)):
            wal.append(pos, event)
        wal.close()
        tail = next(tmp_path.glob("wal-*.seg.open"))
        data = bytearray(tail.read_bytes())
        data[4 * 41 + 20] ^= 0xFF  # a payload byte of record 4
        tail.write_bytes(bytes(data))
        _, replayed = WriteAheadLog.open(tmp_path, fsync=False)
        assert [p for p, _ in replayed] == [0, 1, 2, 3]
        assert tail.stat().st_size == 4 * 41


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
        # An older lock body also records a session id and worker pids.
        (tmp_path / "LOCK").write_text(
            json.dumps(
                {
                    "max_generations": 2,
                    "num_windows": 15,
                    "pid": proc.pid,
                    "session": "rdDEAD",
                    "shards": 2,
                    "workers": [proc.pid],
                },
                sort_keys=True,
            )
        )
        lock = RunLock(tmp_path / "LOCK")
        stale = lock.acquire(LockInfo(pid=os.getpid()))
        assert stale == LockInfo(pid=proc.pid)
        owner = json.loads((tmp_path / "LOCK").read_text())
        assert owner == {"pid": os.getpid()}
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
        assert report.results_json() == reference_json
        assert report.stats.wal_records == stream.num_events
        assert report.stats.checkpoints == len(report.results)
        assert report.stats.resumes == 0

    def test_window_events_are_logged_before_dispatch(
        self, stream, config, tmp_path, monkeypatch
    ):
        # Appends only buffer; the ingest thread writes the buffer before it
        # hands a window over, so when dispatch resolves window k the log
        # file already holds every event of windows 0..k.
        origin = stream.events[0].time
        window_of = [window_index(e.time, origin, WINDOW) for e in stream.events]
        tail = DurabilityConfig(directory=tmp_path).wal_dir / "wal-000000.seg.open"
        resolve = PlanManager.resolve
        missing = {}

        def checked(self, transition, spec, profile=None):
            index = int(transition.name.rpartition("-")[2])
            records, _, _ = _scan_segment(tail.read_bytes())
            logged = {position for position, _ in records}
            missing[index] = [
                p for p, w in enumerate(window_of) if w <= index and p not in logged
            ]
            return resolve(self, transition, spec, profile=profile)

        monkeypatch.setattr(PlanManager, "resolve", checked)
        durable = replace(
            config, durability=DurabilityConfig(directory=tmp_path, fsync=False)
        )
        report = _serve(stream, durable)
        assert sorted(missing) == list(range(len(report.results)))
        assert all(not lost for lost in missing.values())

    def test_log_survives_thread_switches_at_every_bytecode(
        self, stream, config, reference_json, tmp_path
    ):
        # Appends and flushes (ingest thread) race commit syncs (dispatch
        # thread) and four workers on a small segment size, so rotations
        # interleave with syncs; the log must hold each event once, in order.
        durable = replace(
            config,
            workers=4,
            durability=DurabilityConfig(
                directory=tmp_path, fsync=False, segment_bytes=1024
            ),
        )
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = _serve(stream, durable)
        finally:
            sys.setswitchinterval(switch)
        assert report.results_json() == reference_json
        _, records = WriteAheadLog.open(durable.durability.wal_dir, fsync=False)
        assert records == list(enumerate(stream.events))

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
            reference = _serve(stream, cfg).results_json()
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
        assert resumed.results_json() == reference
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
        assert resumed.results_json() == reference_json
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
        assert resumed.results_json() == reference_json
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
        assert resumed.results_json() == reference_json
        assert resumed.stats.recovered_windows == len(resumed.results)

    @pytest.mark.parametrize(
        "change, vertices, spec",
        [
            ({"window": WINDOW / 2}, 64, SPEC),
            ({"origin": -17.0}, 64, SPEC),
            ({}, 128, SPEC),
            ({}, 64, DGNNSpec(gcn_dims=(16, 16), rnn_hidden_dim=16)),
        ],
        ids=["window", "origin", "vertices", "spec"],
    )
    def test_mismatched_window_is_refused(
        self, stream, config, tmp_path, change, vertices, spec
    ):
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
            _serve(_stream(vertices), other, spec)

    def test_refused_resume_closes_the_log_and_releases_the_lock(
        self, stream, config, tmp_path
    ):
        _serve(
            stream,
            replace(
                config,
                durability=DurabilityConfig(directory=tmp_path, fsync=False),
            ),
        )
        resume = DurabilityConfig(directory=tmp_path, fsync=False, resume=True)
        run = DurableRun(resume, window=WINDOW / 2, num_vertices=64, spec=SPEC)
        with pytest.raises(ValueError, match="refusing to mix"):
            run.start()
        assert run.wal._closed
        DurableRun(resume, window=WINDOW, num_vertices=64, spec=SPEC).start().close()

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
            path.write_bytes(b"RDCKPT3\n" + path.read_bytes()[8:])
        resumed = _serve(
            stream,
            replace(
                config,
                durability=DurabilityConfig(
                    directory=tmp_path, fsync=False, resume=True
                ),
            ),
        )
        assert resumed.results_json() == reference_json
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
        assert resumed.results_json() == reference.results_json()
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
            spec=SPEC,
        ).start()
        try:
            # Origin 0.5: the valid events fall in windows 0 and 1.
            assert run.replayed_windows == 2
        finally:
            run.close()


# ---------------------------------------------------------------------------
# Chaos runs: retries, a tripped breaker and poison events across a crash
# ---------------------------------------------------------------------------
class TestChaosCrashPointParity:
    """The CI chaos-smoke run (``repro chaos serve --events 1500
    --vertices 64 --seed 7 --chaos-seed 3 --crash-rate 0.15 --latency-rate
    0.1 --latency-s 0.0005 --poison-rate 0.02 --max-attempts 6``), crashed
    after a commit and resumed, has the uninterrupted run's outcome."""

    @pytest.fixture(scope="class")
    def chaos_run(self):
        stream = synthetic_event_stream(num_vertices=64, num_events=1500, seed=7)
        first, last = stream.time_span
        config = ServiceConfig(
            window=(last - first) / 32.0,
            retry=RetryPolicy(max_attempts=6, backoff_s=0.0005),
            breaker=BreakerConfig(),
            quarantine=True,
            chaos=ChaosSchedule(
                seed=3, crash_rate=0.15, latency_rate=0.1, latency_s=0.0005,
                poison_rate=0.02,
            ),
        )
        spec = DGNNSpec.classic(64, 64)
        reference = StreamingService(config=config).serve(stream, spec)
        return stream, spec, config, reference

    @pytest.mark.parametrize("kill_point", [3, 9, 17, 25])
    def test_resumed_outcome_matches(self, chaos_run, tmp_path, kill_point):
        stream, spec, config, reference = chaos_run
        stats = reference.stats  # the schedule exercises every counter
        assert stats.retries and stats.breaker_trips and stats.quarantined_events

        def serve(**durability):
            durable = replace(
                config,
                durability=DurabilityConfig(
                    directory=tmp_path, fsync=False, **durability
                ),
            )
            return StreamingService(config=durable).serve(stream, spec)

        with pytest.raises(SimulatedCrash):
            serve(abort_after_commit=kill_point)
        resumed = serve(resume=True)
        assert resumed.results_json() == reference.results_json()
        assert resumed.stats.resumes == 1
        assert resumed.stats.recovered_windows == kill_point + 1


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

    def test_sigkill_sweep_is_deterministic(self, stream, config, tmp_path):
        first, _ = run_recover_sweep(
            stream,
            SPEC,
            config=config,
            kill_points=[5],
            root=str(tmp_path / "a"),
        )
        second, _ = run_recover_sweep(
            stream,
            SPEC,
            config=config,
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


class TestServeJoinsItsThreads:
    """The recovery harness forks its victims from a process that has
    already served (the reference run, earlier resumes).  ``fork`` copies
    only the calling thread, so it is safe only if ``serve`` joins every
    thread it starts, whether it returns or raises: no thread is left to
    hold a lock that the child would inherit locked."""

    @pytest.mark.parametrize(
        "case",
        ["default-pool", "inline", "durable", "durable-crash", "malformed"],
    )
    def test_serve_leaves_no_thread_running(
        self, stream, config, tmp_path, case
    ):
        raises, match = None, None
        if case == "inline":
            config = replace(config, workers=0, pipeline_depth=1)
        elif case == "durable":
            config = replace(
                config,
                durability=DurabilityConfig(directory=tmp_path, fsync=False),
            )
        elif case == "durable-crash":
            # A one-window queue keeps ingest blocked on a put when the
            # crash aborts dispatch, so only the join can end it in time.
            config = replace(
                config,
                queue_capacity=1,
                durability=DurabilityConfig(
                    directory=tmp_path, fsync=False, abort_after_commit=7
                ),
            )
            raises = SimulatedCrash
        elif case == "malformed":
            # The first poison event follows event 210 (window 5 of 15);
            # without quarantine, ingest raises it into the dispatch loop.
            config = replace(
                config, chaos=ChaosSchedule(seed=5, poison_rate=0.01)
            )
            raises, match = ValueError, "malformed event"
        before = set(threading.enumerate())
        if raises is None:
            _serve(stream, config)
        else:
            with pytest.raises(raises, match=match):
                _serve(stream, config)
        assert [t for t in threading.enumerate() if t not in before] == []


# ---------------------------------------------------------------------------
# SLO integration
# ---------------------------------------------------------------------------
class TestSloRestartBudget:
    def test_resumes_count_against_restart_budget(self):
        stats = SimpleNamespace(resumes=1)
        assert SLOMonitor.observe(stats, "restarts") == 1.0

    def test_single_process_stats_read_zero(self):
        assert SLOMonitor.observe(ServiceStats(), "restarts") == 0.0


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
