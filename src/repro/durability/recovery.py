"""Crash-consistent recovery: glue between WAL/checkpoints and serving.

:class:`DurableRun` is the lifecycle object the serving layer holds for
one durable run.  ``start()`` acquires the run lock (reclaiming a dead
owner's orphaned workers and shared-memory segments first), opens the
WAL (replaying and tail-truncating as needed), and — on ``resume`` —
loads the newest valid checkpoint.  The service then:

* restores the committed prefix from the checkpoint (results, records,
  counters, plan-manager state, graph snapshot) and starts its window
  machinery at the checkpoint watermark;
* wraps its live event source with :meth:`DurableRun.wrap_stream`,
  which yields the replayed WAL suffix first (no re-logging) and then
  the live events — each appended to the WAL *before* it is yielded
  (log-before-ack), with the already-logged prefix of the source
  skipped by stream position;
* commits through the :class:`WindowCommitter` the run hands out: at
  every window boundary the WAL is fsynced, and every
  ``checkpoint_interval`` windows a checkpoint is cut atomically.

Exactly-once window semantics fall out of the combination: windows
below the watermark come from the checkpoint and are never re-executed;
windows between the watermark and the WAL tail are re-executed from
replayed events, deterministically reproducing the pre-crash results
byte for byte; windows past the WAL tail run live.  A checkpoint newer
than the WAL tail (possible only if WAL segments were deleted by hand)
degrades gracefully — the missing events are simply re-consumed from
the live source, which the position-skip logic treats as "not logged
yet".
"""

from __future__ import annotations

import os
import signal
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from ..graphs.continuous import EdgeEvent, window_index
from ..obs import gauge_set as obs_gauge_set
from ..obs import span as obs_span
from ..serving.ingest import event_fault
from ..serving.stats import wall_clock
from .checkpoint import Checkpoint, CheckpointStore
from .config import DurabilityConfig
from .wal import LockInfo, RunLock, WriteAheadLog

__all__ = [
    "DurableRun",
    "SimulatedCrash",
    "WindowCommitter",
    "reclaim_stale_run",
]


class SimulatedCrash(RuntimeError):
    """Raised by the ``abort_after_commit`` hook for in-process crash tests.

    Unlike the SIGKILL hook it unwinds through ``finally`` blocks, so
    the run lock is released and the same process can immediately
    resume — which is what lets the crash-point parity sweep run every
    kill point inside one pytest process.
    """

    def __init__(self, window: int):
        super().__init__(f"simulated crash after commit of window {window}")
        self.window = window


class WindowCommitter:
    """The per-window commit barrier handed to the dispatch pipeline.

    ``commit(index)`` runs on the dispatch thread after window ``index``
    completes (success or recorded failure): the WAL is made durable up
    to every event the window consumed, then — on the checkpoint
    cadence — ``capture(watermark)`` builds a :class:`Checkpoint` that
    is written atomically.  Only after both does a chaos kill/abort hook
    fire, so a resumed run never observes a commit that was not durable.
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        store: Optional[CheckpointStore],
        capture: Callable[[int, Any, Any], Checkpoint],
        interval: int = 1,
        kill_after: Optional[int] = None,
        abort_after: Optional[int] = None,
        on_commit: Optional[Callable[[int], None]] = None,
    ):
        self._wal = wal
        self._store = store
        self._capture = capture
        self._interval = interval
        self._kill_after = kill_after
        self._abort_after = abort_after
        self._on_commit = on_commit
        self.commits = 0
        self.checkpoints = 0

    def commit(self, index: int, snapshot: Any, plan_state: Any) -> None:
        """Make window ``index`` durable; fire chaos hooks afterwards.

        ``snapshot`` is the committed window's graph snapshot and
        ``plan_state`` the plan-manager snapshot taken when that window's
        plan *resolved* (resolution runs ahead of commit at depth > 1) —
        both flow into ``capture`` so the checkpoint describes exactly
        the sequential prefix up to ``index``.
        """
        watermark = index + 1
        self._wal.sync()
        if self._store is not None and watermark % self._interval == 0:
            with obs_span("durability.checkpoint", window=index):
                self._store.save(self._capture(watermark, snapshot, plan_state))
            self.checkpoints += 1
        self.commits += 1
        if self._on_commit is not None:
            self._on_commit(index)
        if self._kill_after == index:
            # Real crash: no cleanup, no lock release — exactly what an
            # OOM kill or power loss leaves behind.
            os.kill(os.getpid(), signal.SIGKILL)
        if self._abort_after == index:
            raise SimulatedCrash(index)


def _orphan_cmdline(pid: int) -> Optional[bytes]:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return None


def reclaim_stale_run(info: LockInfo) -> Tuple[int, int]:
    """Clean up after a dead lock owner; returns ``(killed, swept)``.

    Kills the shard-worker pids the dead coordinator recorded in its
    lock (only if ``/proc`` confirms a live python process — pids
    recycle) and sweeps the full shared-memory segment name grid of the
    dead session: ``shards x generations x windows`` names, every one
    the dead run could possibly have created (segment names are
    deterministic precisely to make this sweep exhaustive).
    """
    killed = 0
    for pid in info.workers:
        if pid <= 0 or pid == os.getpid():
            continue
        cmdline = _orphan_cmdline(pid)
        if cmdline is None or b"python" not in cmdline.lower():
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            killed += 1
        except (ProcessLookupError, PermissionError):  # pragma: no cover
            continue
    swept = 0
    if info.session and info.shards > 0:
        from ..dist.shmem import unlink_segment
        from ..dist.worker import segment_name

        for shard in range(info.shards):
            for generation in range(info.max_generations + 1):
                for window in range(info.num_windows):
                    name = segment_name(info.session, shard, generation, window)
                    if unlink_segment(name):
                        swept += 1
    return killed, swept


class DurableRun:
    """One durable serving run: lock + WAL + checkpoints + replay state."""

    def __init__(
        self,
        config: DurabilityConfig,
        window: float,
        num_vertices: int,
        origin: Optional[float] = None,
    ):
        self.config = config
        self.window_length = window
        #: the stream's vertex space, which ingest validates events against
        self.num_vertices = num_vertices
        self.origin = origin
        self.wal: Optional[WriteAheadLog] = None
        #: replayed ``(position, event)`` records, append order
        self.records: List[Tuple[int, EdgeEvent]] = []
        self.checkpoint: Optional[Checkpoint] = None
        #: stale-owner lock info reclaimed at start (``None`` if clean)
        self.reclaimed: Optional[LockInfo] = None
        #: orphan workers killed / shm segments swept during reclaim
        self.reclaim_counts: Tuple[int, int] = (0, 0)
        self.resumed = False
        self.replayed_windows = 0
        self.recovery_s = 0.0
        self._lock = RunLock(config.lock_path)
        self._store: Optional[CheckpointStore] = None
        self._started_at = 0.0
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> int:
        """First window index the run must execute (0 on a fresh run)."""
        return self.checkpoint.watermark if self.checkpoint is not None else 0

    @property
    def start_position(self) -> int:
        """Stream position right past the last WAL record (the live seam)."""
        return self.records[-1][0] + 1 if self.records else 0

    def start(self) -> "DurableRun":
        """Lock, sweep, open the WAL, load the checkpoint; ready to serve."""
        cfg = self.config
        cfg.root.mkdir(parents=True, exist_ok=True)
        self._started_at = wall_clock()
        with obs_span("durability.recover", resume=cfg.resume) as sp:
            stale = self._lock.acquire(LockInfo(pid=os.getpid()))
            if stale is not None:
                self.reclaimed = stale
                self.reclaim_counts = reclaim_stale_run(stale)
            try:
                if not cfg.resume and self._has_prior_run():
                    raise ValueError(
                        f"{cfg.root}: durability directory already holds a "
                        "run; pass --resume to recover it or point --wal at "
                        "a fresh directory"
                    )
                self.wal, self.records = WriteAheadLog.open(
                    cfg.wal_dir,
                    segment_bytes=cfg.segment_bytes,
                    fsync=cfg.fsync,
                )
                self._store = CheckpointStore(
                    cfg.checkpoint_dir, retain=cfg.retain, fsync=cfg.fsync
                )
                if cfg.resume:
                    self.checkpoint = self._store.load_latest()
                    self._check_meta()
                    self.resumed = bool(self.records) or (
                        self.checkpoint is not None
                    )
            except BaseException:
                self._lock.release()
                raise
            self.replayed_windows = self._compute_replayed_windows()
            # Setup-only cost; refined by note_commit once the run
            # re-reaches the crash frontier.
            self.recovery_s = wall_clock() - self._started_at
            if sp.enabled:
                sp.add("wal_records", len(self.records))
                sp.add("watermark", self.watermark)
                sp.add("replayed_windows", self.replayed_windows)
        return self

    def _has_prior_run(self) -> bool:
        cfg = self.config
        if cfg.wal_dir.exists() and any(cfg.wal_dir.glob("wal-*")):
            return True
        return cfg.checkpoint_dir.exists() and any(
            cfg.checkpoint_dir.glob("ckpt-*.bin")
        )

    def _check_meta(self) -> None:
        """Refuse a checkpoint cut with a different window grid.

        ``window`` and ``origin`` together fix which window every event
        lands in, so resuming under either changed would splice two
        different window sequences into one run.
        """
        if self.checkpoint is None:
            return
        meta = self.checkpoint.meta
        for key, requested in (
            ("window", self.window_length),
            ("origin", self.origin),
        ):
            if key in meta and meta[key] != requested:
                raise ValueError(
                    f"checkpoint was cut with {key}={meta[key]}, resume "
                    f"requested {key}={requested}; refusing to mix"
                )

    def _compute_replayed_windows(self) -> int:
        """Windows past the watermark already covered by the WAL.

        Chaos poisoning logs events before ingest validates them, so the
        WAL can hold malformed records; like ingest, skip them before they
        can anchor the origin or reach ``window_index``.
        """
        if not self.records:
            return 0
        origin = self.origin
        last = -1
        for _, event in self.records:
            if event_fault(event, self.num_vertices) is not None:
                continue
            if origin is None:
                origin = event.time
            index = window_index(event.time, origin, self.window_length)
            if index > last:
                last = index
        return max(0, last + 1 - self.watermark)

    def close(self) -> None:
        """Seal the WAL and release the run lock (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.wal is not None:
            self.wal.close()
        self._lock.release()

    # ------------------------------------------------------------------
    # Stream plumbing
    # ------------------------------------------------------------------
    def wrap_stream(self, events: Iterable[EdgeEvent]) -> Iterator[EdgeEvent]:
        """Replayed WAL suffix, then live events logged before yield.

        The live source is expected to restart from stream position 0
        (our generated streams are seeded, so re-iterating reproduces
        them exactly); its already-logged prefix is skipped by position
        and the WAL's replayed copy is served instead — the WAL, not the
        source, is authoritative for everything that was acked.
        """
        assert self.wal is not None, "wrap_stream before start()"
        tail = self.start_position
        for _, event in self.records:
            yield event
        position = 0
        for event in events:
            if position < tail:
                position += 1
                continue
            self.wal.append(position, event)
            position += 1
            yield event

    def note_commit(self, index: int) -> None:
        """Commit-progress hook: stamps the end of the recovery phase."""
        frontier = self.watermark + self.replayed_windows
        if index + 1 == frontier:
            self.recovery_s = wall_clock() - self._started_at

    # ------------------------------------------------------------------
    # Commit / bookkeeping
    # ------------------------------------------------------------------
    def committer(self, capture: Callable[[int], Checkpoint]) -> WindowCommitter:
        """Build the commit barrier for this run's dispatch pipeline."""
        assert self.wal is not None, "committer before start()"
        cfg = self.config
        return WindowCommitter(
            wal=self.wal,
            store=self._store,
            capture=capture,
            interval=cfg.checkpoint_interval,
            kill_after=cfg.kill_after_commit,
            abort_after=cfg.abort_after_commit,
            on_commit=self.note_commit,
        )

    def record_workers(
        self,
        session: str,
        shards: int,
        num_windows: int,
        max_generations: int,
        pids: Iterable[int],
    ) -> None:
        """Record the sharded-run grid in the lock for stale reclaim."""
        self._lock.update(
            LockInfo(
                pid=os.getpid(),
                session=session,
                shards=shards,
                num_windows=num_windows,
                max_generations=max_generations,
                workers=tuple(pids),
            )
        )

    def finalize_stats(self, stats: Any) -> None:
        """Fold durability/recovery metrics into a run's stats object."""
        assert self.wal is not None
        stats.resumes = 1 if self.resumed else 0
        stats.recovered_windows = self.watermark
        stats.replayed_windows = self.replayed_windows
        stats.recovery_s = self.recovery_s
        stats.wal_records = len(self.records) + self.wal.records_appended
        stats.checkpoints = self._store.saved if self._store else 0
        obs_gauge_set("durability.wal_records", stats.wal_records)
        obs_gauge_set("durability.checkpoints", stats.checkpoints)
        if self.resumed:
            obs_gauge_set("durability.replayed_windows", self.replayed_windows)
            obs_gauge_set("durability.recovery_s", self.recovery_s)
