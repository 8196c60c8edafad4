"""Crash-consistent recovery: glue between WAL/checkpoints and serving.

:class:`DurableRun` is the lifecycle object the serving layer holds for
one durable run.  ``start()`` acquires the run lock (taking over a dead
owner's lock), opens the WAL (replaying and tail-truncating as needed),
and — on ``resume`` — loads the newest valid checkpoint.  The service
then:

* restores the committed prefix from the checkpoint (results, records,
  counters, plan-manager state, graph snapshot) and starts its window
  machinery at the checkpoint watermark;
* wraps its live event source with :meth:`DurableRun.wrap_stream`,
  which yields the replayed WAL suffix first (no re-logging) and then
  the live events — each appended to the WAL buffer *before* it is
  yielded, with the already-logged prefix of the source skipped by
  stream position;
* flushes the WAL buffer on the ingest thread before it hands each
  window to dispatch, so every event of a window is in the log before
  the window can commit;
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

import itertools
import os
import signal
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from ..graphs.continuous import EdgeEvent, EventColumns
from ..obs import gauge_set as obs_gauge_set
from ..obs import span as obs_span
from ..serving.ingest import classify_events
from ..serving.stats import wall_clock
from .checkpoint import Checkpoint, CheckpointStore
from .config import DurabilityConfig
from .wal import LockInfo, RunLock, WriteAheadLog

__all__ = [
    "DurableRun",
    "SimulatedCrash",
    "WindowCommitter",
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
        """Lock, open the WAL, load the checkpoint; ready to serve."""
        cfg = self.config
        cfg.root.mkdir(parents=True, exist_ok=True)
        self._started_at = wall_clock()
        with obs_span("durability.recover", resume=cfg.resume) as sp:
            self._lock.acquire(LockInfo(pid=os.getpid()))
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
        WAL can hold malformed records; ingest's own rule
        (:func:`~repro.serving.ingest.classify_events`) skips them before
        they can anchor the origin or be assigned a window.
        """
        columns = EventColumns.from_events([event for _, event in self.records])
        _, index = classify_events(
            columns, self.num_vertices, self.origin, self.window_length
        )
        last = int(index.max()) if len(index) else -1
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
        append = self.wal.append
        for position, event in enumerate(itertools.islice(events, tail, None), tail):
            append(position, event)
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
