"""The merging coordinator: shard processes -> one global serving run.

Topology (one coordinator, ``shards`` worker processes):

::

    events ──> [router] ──fork──> [shard 0..S-1] ──(queue+shm)──> [merge] ──> [plan/execute]
                consistent         per-shard           per-window      global snapshot,
                hash by dst        window builds       delta views     same pipeline as
                                                                       single-process

The coordinator routes the whole stream up front, forks one worker per
shard, then merges window by window: each shard's net delta arrives as
zero-copy views over a shared-memory segment, the deltas concatenate
into the exact global delta (disjoint by destination ownership), and
:func:`~repro.graphs.delta.apply_delta` — which canonicalizes the edge
set — materializes a global snapshot **bit-identical** to the
single-process ingest path.  Planning and execution then run through the
identical :class:`~repro.serving.plan_manager.PlanManager` /
:class:`~repro.serving.executor.WindowRunner` machinery behind the same
overlapped :class:`~repro.serving.pipeline.WindowPipeline` (merge for
batch ``k+1`` overlaps execution of batch ``k``; shard workers prefetch
window deltas into shared memory ahead of the merge), so per-window
results are byte-for-byte equal to ``StreamingService.serve`` and
``serve_offline`` for *any* shard count and pipeline depth (the
parity sweeps in ``tests/test_dist.py``).

Worker death is detected by liveness probes on queue-poll timeouts; the
dead shard restarts (bounded by ``max_restarts``, after a bounded
exponential backoff with seeded jitter) from the shard subgraph of the
last merged global snapshot, replaying only the routed events from the
first unmerged window — restarts are invisible in the results.  The
``sigkill_windows`` schedule delivers *real* ``SIGKILL``\\ s to workers
(no cooperative cleanup) through the same restart path.

With ``service.durability`` set the coordinator runs under a
:class:`~repro.durability.recovery.DurableRun`: the routed stream is
WAL-logged before any window is served, every merged window commits
through the shared :class:`~repro.serving.pipeline.WindowPipeline`
barrier, and checkpoints carry the merged global snapshot plus the
per-shard accounting needed to restore ``ShardStats`` exactly.  Worker
pids and the segment-name grid are recorded in the run lock so a resume
after a coordinator SIGKILL can reclaim orphaned workers and
shared-memory segments before re-serving.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import queue as queue_mod
import signal
import time
from contextlib import ExitStack
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..accel.metrics import SimulationResult
from ..core.plan import DGNNSpec
from ..ditile import DiTileAccelerator
from ..graphs.continuous import ContinuousDynamicGraph
from ..graphs.delta import SnapshotDelta, apply_delta, merge_deltas
from ..graphs.partition import hash_vertex_partition, shard_subgraph
from ..graphs.snapshot import GraphSnapshot
from ..obs import active_tracer
from ..obs import gauge_set as obs_gauge_set
from ..obs import span as obs_span
from ..obs.distributed import TraceContext
from ..serving.executor import WindowExecutor, WindowRunner
from ..serving.ingest import Window
from ..serving.pipeline import WindowPipeline
from ..serving.plan_manager import PlanManager
from ..serving.service import ServingReport
from ..serving.stats import wall_clock
from .config import ShardedConfig
from .router import EventRouter
from .shmem import attach_segment, unlink_segment
from .stats import EdgeAccount, ShardStats, ShardedStats
from .worker import (
    ShardDoneMessage,
    ShardErrorMessage,
    ShardTraceMessage,
    ShardWindowMessage,
    segment_name,
    shard_worker_main,
)

__all__ = ["ShardedService"]

#: distinguishes segment namespaces of services created by one process
_session_ids = itertools.count()


class _MergeBatchSource:
    """Feeds the dispatch pipeline from the shard merge loop.

    The :class:`~repro.serving.pipeline.BatchSource` counterpart of the
    single-process ingest queue: each pulled window is the *merged*
    global window assembled from every shard's shared-memory delta.  A
    blocking pull always merges at least one window (waiting on the
    shard queues if it must — that wait is the pipeline's prefetch
    stall); beyond that, and on non-blocking pulls, it merges only
    windows every shard has already contributed to, so a slow shard
    never stalls the collection of in-flight batches.
    """

    def __init__(
        self,
        service: "ShardedService",
        ctx,
        stats: ShardedStats,
        shard_stats: List[ShardStats],
    ):
        self._service = service
        self._ctx = ctx
        self._stats = stats
        self._shard_stats = shard_stats

    @property
    def _exhausted(self) -> bool:
        return self._service._merged_upto >= self._service._num_windows

    def _ready(self) -> bool:
        """Whether every shard's next contribution is already queued.

        Best-effort (``Queue.empty`` is approximate): a false negative
        only delays a merge to the next blocking pull, never drops one.
        """
        try:
            return all(not q.empty() for q in self._service._queues)
        except (NotImplementedError, OSError):  # pragma: no cover - platform
            return False

    def pull(self, max_windows: int, block: bool) -> Optional[List[Window]]:
        if self._exhausted or (not block and not self._ready()):
            return None
        batch = [self._merge()]
        while len(batch) < max_windows and not self._exhausted and self._ready():
            batch.append(self._merge())
        return batch

    def _merge(self) -> Window:
        return self._service._merge_next(self._ctx, self._stats, self._shard_stats)

    def depth(self) -> int:
        return self._service._queue_depth()


class ShardedService:
    """Serves an event stream across ``shards`` worker processes."""

    def __init__(
        self,
        model: Optional[DiTileAccelerator] = None,
        config: ShardedConfig = ShardedConfig(),
    ):
        self.model = model if model is not None else DiTileAccelerator()
        self.config = config
        self._session = f"rd{os.getpid():x}x{next(_session_ids)}"
        self._procs: List[Optional[multiprocessing.Process]] = []
        self._queues: List = []
        self._gens: List[int] = []
        self._restarts = 0
        self._merged_upto = 0
        self._num_windows = 0
        self._attempts: List[int] = []
        self._sigkill_pending: set = set()
        self._sigkills = 0
        #: per-merged-window ``(events_by_shard, segment_by_shard)`` —
        #: what a checkpoint needs to restore ShardStats exactly
        self._window_acct: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        self._dur = None

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self, stream: ContinuousDynamicGraph, spec: DGNNSpec
    ) -> ServingReport:
        """Serve ``stream`` end to end; always tears the workers down."""
        with obs_span(
            "dist.serve",
            stream=stream.name,
            shards=self.config.shards,
            workers=self.config.service.workers,
        ):
            try:
                return self._serve(stream, spec)
            finally:
                self.shutdown()

    def _serve(
        self, stream: ContinuousDynamicGraph, spec: DGNNSpec
    ) -> ServingReport:
        svc = self.config.service
        dur = None
        if svc.durability is not None:
            from ..durability.recovery import DurableRun

            dur = DurableRun(
                svc.durability,
                window=svc.window,
                num_vertices=stream.num_vertices,
                origin=svc.origin,
            ).start()
        self._dur = dur
        try:
            return self._serve_run(stream, spec, dur)
        finally:
            self._dur = None
            if dur is not None:
                dur.close()

    def _serve_run(
        self,
        stream: ContinuousDynamicGraph,
        spec: DGNNSpec,
        dur=None,
    ) -> ServingReport:
        cfg = self.config
        svc = cfg.service
        chaos = (
            svc.chaos if svc.chaos is not None and not svc.chaos.is_quiet else None
        )
        checkpoint = dur.checkpoint if dur is not None else None
        events = stream.events
        if chaos is not None and chaos.poison_rate > 0.0:
            # Poison is injected before routing — the shard workers see
            # exactly the stream the single-process ingest thread would.
            events = chaos.inject(events, num_vertices=stream.num_vertices)
        if dur is not None:
            # The coordinator routes the whole stream up front, so the
            # wrapped iterator WAL-logs every live event during routing —
            # before any window is served (log-before-ack holds a
            # fortiori) — and replays the logged suffix on resume.
            events = dur.wrap_stream(events)
        self._partition = hash_vertex_partition(
            stream.num_vertices, cfg.shards, seed=cfg.partition_seed
        )
        router = EventRouter(
            self._partition,
            num_vertices=stream.num_vertices,
            window=svc.window,
            origin=svc.origin,
            strict_time_order=svc.strict_time_order,
            quarantine=svc.quarantine,
        )
        routing = router.route(events)
        self._routing = routing
        self._num_windows = routing.num_windows
        self._num_vertices = stream.num_vertices
        self._feature_dim = spec.feature_dim
        self._origin = routing.origin
        self._current = self._initial_snapshot(stream, spec)
        self._merged_upto = 0
        self._window_acct = {}
        self._sigkill_pending = set(cfg.sigkill_windows)
        self._sigkills = 0
        start_window = 0
        if checkpoint is not None:
            # The merged prefix is already durable: restart the merge
            # clock at the watermark, seed workers from shard subgraphs
            # of the checkpointed global snapshot (the same derivation
            # the worker-restart path uses).
            self._current = checkpoint.snapshot
            self._merged_upto = checkpoint.watermark
            start_window = checkpoint.watermark

        started = wall_clock()
        ctx = multiprocessing.get_context(cfg.mp_start_method)
        self._queues = [
            ctx.Queue(maxsize=svc.queue_capacity) for _ in range(cfg.shards)
        ]
        self._procs = [None] * cfg.shards
        self._gens = [0] * cfg.shards
        self._attempts = [0] * cfg.shards
        # Fork all workers *before* the thread pool exists — forking a
        # multi-threaded process is where fork() gets dangerous.
        for shard in range(cfg.shards):
            self._spawn(ctx, shard, start_window=start_window)
        if dur is not None:
            self._record_workers()

        stats = ShardedStats(shards=cfg.shards)
        shard_stats = [ShardStats(shard=s) for s in range(cfg.shards)]
        results: List[SimulationResult] = []
        manager = PlanManager(
            self.model,
            capacity=svc.plan_cache_capacity,
            drift_threshold=svc.drift_threshold,
            breaker=svc.breaker,
            label="coordinator",
        )
        runner = WindowRunner(
            self.model, spec, chaos=chaos, faults=svc.faults, retry=svc.retry
        )
        prev_snapshot = None
        committer = None
        if dur is not None:
            from ..durability.checkpoint import Checkpoint

            if checkpoint is not None:
                # Restore the committed prefix exactly as the
                # single-process service does, plus the dist-only state:
                # the per-window edge accounting and the per-shard
                # window/event/segment tallies the merged prefix accrued.
                manager.restore_state(checkpoint.plan_state)
                results.extend(checkpoint.results)
                stats.records.extend(checkpoint.records)
                stats.retries = checkpoint.counters.get("retries", 0)
                stats.windows_failed = checkpoint.counters.get(
                    "windows_failed", 0
                )
                stats.failures.extend(checkpoint.counters.get("failures", []))
                shard_state = checkpoint.shard_state or {}
                stats.edge_accounts.extend(shard_state.get("edge_accounts", []))
                acct = shard_state.get("window_acct", {})
                self._window_acct.update(acct)
                for st in shard_stats:
                    st.windows = len(acct)
                    st.events = sum(ev[st.shard] for ev, _ in acct.values())
                    st.segments = sum(sg[st.shard] for _, sg in acct.values())
                if stats.edge_accounts:
                    last = stats.edge_accounts[-1]
                    for st in shard_stats:
                        st.edges_final = last.shard_edges[st.shard]
                        st.cut_edges_final = last.cut_edges[st.shard]
                prev_snapshot = checkpoint.snapshot

            def _capture(watermark, snapshot, plan_state) -> Checkpoint:
                return Checkpoint(
                    watermark=watermark,
                    snapshot=snapshot,
                    plan_state=plan_state,
                    results=list(results),
                    records=list(stats.records),
                    counters={
                        "retries": stats.retries,
                        "windows_failed": stats.windows_failed,
                        "failures": list(stats.failures),
                    },
                    wal_records=len(dur.records) + dur.wal.records_appended,
                    meta={
                        "window": svc.window,
                        "origin": svc.origin,
                        "shards": cfg.shards,
                    },
                    # Merging runs ahead of commit at depth > 1, so both
                    # slices filter to the committed prefix only.
                    shard_state={
                        "edge_accounts": [
                            a
                            for a in stats.edge_accounts
                            if a.window < watermark
                        ],
                        "window_acct": {
                            w: a
                            for w, a in self._window_acct.items()
                            if w < watermark
                        },
                    },
                )

            committer = dur.committer(_capture)
        pool = WindowExecutor(svc.workers)
        try:
            # Identical dispatch discipline to StreamingService — the
            # same WindowPipeline, fed by the shard merge instead of the
            # ingest queue: plans resolve sequentially in window order
            # while earlier batches execute, and shard workers keep
            # prefetching window deltas into shared memory ahead of the
            # merge (their bounded queues are the prefetch window).
            WindowPipeline(  # repro: noqa[MP001] worker-restart path: a merge pulled by the pipeline may respawn a dead shard while the pool's threads exist, but the child runs shard_worker_main from scratch and never touches inherited pool/lock state; tearing the pool down first would stall every in-flight window
                source=_MergeBatchSource(self, ctx, stats, shard_stats),
                manager=manager,
                runner=runner,
                pool=pool,
                spec=spec,
                stats=stats,
                results=results,
                depth=svc.pipeline_depth,
                max_batch_windows=svc.max_batch_windows,
                queue_gauge="dist.queue_depth",
                prev=prev_snapshot,
                committer=committer,
            ).drive()
        finally:
            pool.shutdown(wait=True, cancel_pending=True)
        if active_tracer() is not None:
            self._collect_final_traces()
        stats.elapsed_s = wall_clock() - started
        stats.windows = len(results)
        stats.events = routing.total_events
        stats.late_events = routing.late_events
        stats.quarantined_events = routing.quarantined_events
        stats.restarts = self._restarts
        stats.sigkills = self._sigkills
        for st in shard_stats:
            st.restart_attempts = self._attempts[st.shard]
        stats.shard_stats = shard_stats
        stats.from_plan_manager(manager)
        if dur is not None:
            dur.finalize_stats(stats)
        self._emit_gauges(stats, chaos)
        return ServingReport(results=results, stats=stats)

    # ------------------------------------------------------------------
    # Merge protocol
    # ------------------------------------------------------------------
    def _merge_next(
        self, ctx, stats: ShardedStats, shard_stats: List[ShardStats]
    ) -> Window:
        """Gather every shard's contribution to the next window and merge."""
        index = self._merged_upto
        with obs_span("dist.merge", window=index) as sp:
            msgs = [
                self._gather(ctx, shard, index)
                for shard in range(self.config.shards)
            ]
            merged = self._merge_deltas(msgs)
            for msg in msgs:
                if msg.segment is not None:
                    unlink_segment(msg.segment.name)
            if merged.num_changes:
                self._current = apply_delta(
                    self._current, merged, timestamp=index
                )
            if sp.enabled:
                sp.add("changes", merged.num_changes)
        for msg, st in zip(msgs, shard_stats):
            st.windows += 1
            st.events += msg.num_events
            st.segments += 1 if msg.segment is not None else 0
            st.edges_final = msg.shard_edges
            st.cut_edges_final = msg.cut_edges
            st.generation = self._gens[msg.shard]
        self._window_acct[index] = (
            tuple(m.num_events for m in msgs),
            tuple(1 if m.segment is not None else 0 for m in msgs),
        )
        stats.edge_accounts.append(
            EdgeAccount(
                window=index,
                shard_edges=tuple(m.shard_edges for m in msgs),
                cut_edges=tuple(m.cut_edges for m in msgs),
                global_edges=self._current.num_edges,
            )
        )
        self._merged_upto = index + 1
        return Window(
            index=index,
            snapshot=self._current,
            delta=merged,
            num_events=sum(m.num_events for m in msgs),
            close_time=msgs[0].close_time,
            closed_at=max(m.closed_at for m in msgs),
        )

    def _merge_deltas(self, msgs: List[ShardWindowMessage]) -> SnapshotDelta:
        """Concatenate the shard deltas straight out of shared memory.

        The per-segment views are consumed zero-copy inside the attach
        scope (``np.concatenate`` is the first — and only — copy);
        nothing aliases the segments once this returns, so the caller can
        unlink them.
        """
        with ExitStack() as stack:
            deltas: List[SnapshotDelta] = []
            for msg in msgs:
                if msg.segment is None:
                    continue
                views = stack.enter_context(attach_segment(msg.segment))
                deltas.append(
                    SnapshotDelta(
                        added_src=views["added_src"],
                        added_dst=views["added_dst"],
                        removed_src=views["removed_src"],
                        removed_dst=views["removed_dst"],
                    )
                )
            merged = merge_deltas(deltas)
            # Drop the view-backed deltas before the segments detach.
            deltas.clear()
        return merged

    def _gather(self, ctx, shard: int, window: int) -> ShardWindowMessage:
        """The next in-protocol message from ``shard`` for ``window``.

        Poll timeouts double as liveness probes: a silent *and* dead
        worker triggers the restart path; a silent live one (a slow
        window) just keeps the coordinator waiting.
        """
        self._maybe_sigkill(ctx, shard, window)
        while True:
            try:
                msg = self._queues[shard].get(timeout=self.config.heartbeat_s)
            except queue_mod.Empty:
                proc = self._procs[shard]
                if proc is None or not proc.is_alive():
                    self._restart(ctx, shard, window)
                continue
            except (EOFError, OSError, pickle.UnpicklingError):
                # A worker SIGKILLed mid-put can leave a torn frame on
                # the queue pipe; the read error is the death signal.
                self._restart(ctx, shard, window)
                continue
            if msg.generation != self._gens[shard]:
                # Stale message from a pre-restart incarnation.
                if (
                    isinstance(msg, ShardWindowMessage)
                    and msg.segment is not None
                ):
                    unlink_segment(msg.segment.name)
                continue
            if isinstance(msg, ShardTraceMessage):
                # Out-of-band telemetry: attach and keep gathering.  The
                # worker always flushes *before* the window message, so
                # every in-generation batch is consumed right here —
                # except the terminal flush, which
                # :meth:`_collect_final_traces` drains after the run.
                tracer = active_tracer()
                if tracer is not None:
                    tracer.add_shard_batch(msg.batch)
                continue
            if isinstance(msg, ShardErrorMessage):
                raise RuntimeError(
                    f"shard {shard} (generation {msg.generation}) failed: "
                    f"{msg.error}"
                )
            if isinstance(msg, ShardDoneMessage):
                raise RuntimeError(
                    f"shard {shard} finished before window {window} "
                    f"(protocol violation)"
                )
            if msg.window != window:
                raise RuntimeError(
                    f"shard {shard} sent window {msg.window}, expected "
                    f"{window} (protocol violation)"
                )
            return msg

    def _maybe_sigkill(self, ctx, shard: int, window: int) -> None:
        """Deliver a scheduled real SIGKILL and restart through the
        normal path.

        Firing at gather time and restarting *immediately* (instead of
        waiting for the liveness probe to notice) keeps the schedule
        deterministic: every consumed kill costs exactly one restart and
        the new generation replays from ``window``, regardless of how
        far the dead worker had prefetched.
        """
        key = (shard, window)
        if key not in self._sigkill_pending:
            return
        self._sigkill_pending.discard(key)
        if self._gens[shard] != 0:
            return
        proc = self._procs[shard]
        if proc is None or not proc.is_alive() or not proc.pid:
            return
        os.kill(proc.pid, signal.SIGKILL)
        self._sigkills += 1
        self._restart(ctx, shard, window)

    def _restart(self, ctx, shard: int, window: int) -> None:
        """Replace a dead shard worker, resuming at ``window``.

        The new incarnation is seeded with the shard subgraph of the last
        merged global snapshot (exactly the dead worker's live edge set
        after window ``window - 1``) and replays the routed events from
        ``window`` on — so the restart is invisible in the merged
        results.  Everything the dead incarnation left behind — queued
        messages, announced segments, and segments created but never
        announced — is swept before the new generation starts.
        """
        self._restarts += 1
        if self._restarts > self.config.max_restarts:
            raise RuntimeError(
                f"shard {shard} died at window {window}; restart budget "
                f"({self.config.max_restarts}) exhausted"
            )
        proc = self._procs[shard]
        if proc is not None:
            proc.join()
        self._drain_queue(shard)
        # A SIGKILLed writer can die holding the queue's feeder lock or
        # mid-frame on the pipe; a fresh queue per generation sidesteps
        # both instead of trying to repair shared queue state.
        old = self._queues[shard]
        self._queues[shard] = ctx.Queue(
            maxsize=self.config.service.queue_capacity
        )
        old.close()
        old.cancel_join_thread()
        self._sweep_segments(shard, self._gens[shard], window)
        self._gens[shard] += 1
        self._attempts[shard] += 1
        self._backoff(shard)
        obs_gauge_set("dist.restarts", self._restarts)
        self._spawn(ctx, shard, start_window=window)
        if self._dur is not None:
            self._record_workers()

    def _backoff(self, shard: int) -> None:
        """Bounded exponential backoff before respawning ``shard``.

        The jitter is drawn from an rng seeded by
        ``(restart_jitter_seed, shard, attempt)``, so repeated runs of
        the same chaos schedule sleep identically — the delay decorrelates
        concurrent respawns without making reports timing-dependent.
        """
        cfg = self.config
        if cfg.restart_backoff_s <= 0:
            return
        attempt = self._attempts[shard]
        delay = min(
            cfg.restart_backoff_cap_s,
            cfg.restart_backoff_s * 2 ** (attempt - 1),
        )
        jitter = np.random.default_rng(
            (cfg.restart_jitter_seed, shard, attempt)
        ).random()
        time.sleep(delay * (1.0 + 0.25 * jitter))

    def _record_workers(self) -> None:
        """Stamp the live worker grid into the run lock for stale reclaim."""
        self._dur.record_workers(
            session=self._session,
            shards=self.config.shards,
            num_windows=self._num_windows,
            max_generations=self.config.max_restarts + 1,
            pids=[p.pid for p in self._procs if p is not None and p.pid],
        )

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def _spawn(self, ctx, shard: int, start_window: int) -> None:
        svc = self.config.service
        routed = self._routing.routed[shard]
        if start_window:
            routed = [(i, e) for i, e in routed if i >= start_window]
        tracer = active_tracer()
        trace_ctx = None
        if tracer is not None:
            # The context pins the worker's flushed spans to this run
            # (trace id = segment session) and to the coordinator span
            # open right now — dist.serve at first spawn, dist.merge on
            # the restart path.
            trace_ctx = TraceContext(
                trace_id=self._session,
                parent_span_id=tracer.current_span_id() or 0,
                shard=shard,
                generation=self._gens[shard],
            )
        proc = ctx.Process(
            target=shard_worker_main,
            name=f"repro-dist-shard{shard}",
            args=(
                shard,
                self._gens[shard],
                self._session,
                routed,
                self._queues[shard],
                self._num_vertices,
                self._feature_dim,
                svc.window,
                self._origin,
                start_window,
                self._num_windows,
                shard_subgraph(self._current, self._partition, shard),
                self._partition.assignment,
                self.config.crash_windows,
                trace_ctx,
                os.getpid(),
            ),
            daemon=True,
        )
        proc.start()
        self._procs[shard] = proc

    def _collect_final_traces(self) -> None:
        """Drain each shard queue to its Done marker after the last merge.

        The worker's terminal trace flush (final ingest span + the
        generation's full cumulative metrics) sits behind the last window
        message the gather loop consumed; tearing down without reading it
        would make trace content depend on teardown timing.  A worker
        that died after its last window simply contributes nothing more
        (dead *and* drained ends the wait — same liveness discipline as
        :meth:`_gather`).
        """
        tracer = active_tracer()
        for shard, q in enumerate(self._queues):
            while True:
                try:
                    msg = q.get(timeout=self.config.heartbeat_s)
                except queue_mod.Empty:
                    proc = self._procs[shard]
                    if proc is None or not proc.is_alive():
                        break
                    continue
                if isinstance(msg, ShardTraceMessage):
                    if (
                        tracer is not None
                        and msg.generation == self._gens[shard]
                    ):
                        tracer.add_shard_batch(msg.batch)
                    continue
                if isinstance(msg, ShardDoneMessage):
                    if msg.generation == self._gens[shard]:
                        break
                    continue
                if (
                    isinstance(msg, ShardWindowMessage)
                    and msg.segment is not None
                ):
                    unlink_segment(msg.segment.name)

    def shutdown(self) -> None:
        """Terminate and join every shard worker; free every segment.

        Idempotent and exception-safe — the chaos harness and the CLI
        call it from ``try/finally`` so no run, however it ended, leaks
        orphan processes or shared-memory segments.
        """
        procs, self._procs = self._procs, []
        queues, self._queues = self._queues, []
        for proc in procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in procs:
            if proc is not None:
                proc.join(timeout=5.0)
        for q in queues:
            while True:
                try:
                    msg = q.get_nowait()
                except (queue_mod.Empty, OSError, ValueError):
                    break
                if (
                    isinstance(msg, ShardWindowMessage)
                    and msg.segment is not None
                ):
                    unlink_segment(msg.segment.name)
            q.close()
            q.cancel_join_thread()
        for shard, gen in enumerate(self._gens):
            self._sweep_segments(shard, gen, self._merged_upto)
        self._gens = []

    def _drain_queue(self, shard: int) -> None:
        """Discard everything a dead incarnation left on its queue."""
        while True:
            try:
                msg = self._queues[shard].get_nowait()
            except queue_mod.Empty:
                return
            except (EOFError, OSError, pickle.UnpicklingError):
                # Torn frame from a SIGKILLed writer — everything behind
                # it is unreadable; the segment sweep reclaims whatever
                # the lost messages announced.
                return
            if isinstance(msg, ShardWindowMessage) and msg.segment is not None:
                unlink_segment(msg.segment.name)

    def _sweep_segments(self, shard: int, generation: int, window: int) -> None:
        """Free segments ``shard`` may have created at or after ``window``.

        A worker can run at most ``queue_capacity`` windows ahead of the
        last message the coordinator consumed (the bounded queue blocks
        it there) plus one segment written before the blocked put — so a
        bounded name sweep provably covers every possible orphan.
        """
        horizon = min(
            window + self.config.service.queue_capacity + 2, self._num_windows
        )
        for w in range(window, horizon):
            unlink_segment(segment_name(self._session, shard, generation, w))

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def _initial_snapshot(
        self, stream: ContinuousDynamicGraph, spec: DGNNSpec
    ) -> GraphSnapshot:
        """The window-0 predecessor, built exactly as single-process ingest
        builds it (same vertex space, same feature dim)."""
        initial = stream.initial
        if initial is None or initial.num_edges == 0:
            src = dst = np.empty(0, dtype=np.int64)
        else:
            src, dst = initial.edge_arrays()
        return GraphSnapshot.from_edge_arrays(
            stream.num_vertices, src, dst, feature_dim=spec.feature_dim
        )

    def _queue_depth(self) -> int:
        """Deepest shard queue (stats only; 0 where unsupported)."""
        depth = 0
        for q in self._queues:
            try:
                depth = max(depth, q.qsize())
            except NotImplementedError:  # pragma: no cover - macOS
                return 0
        return depth

    def _emit_gauges(self, stats: ShardedStats, chaos) -> None:
        svc = self.config.service
        obs_gauge_set("serve.plan_cache_hit_rate", stats.plan_hit_rate)
        obs_gauge_set("dist.shards", stats.shards)
        obs_gauge_set("dist.restarts", stats.restarts)
        obs_gauge_set("dist.cut_edges", stats.cut_edges_final)
        for st in stats.shard_stats:
            obs_gauge_set(f"dist.shard{st.shard}.events", st.events)
            obs_gauge_set(f"dist.shard{st.shard}.segments", st.segments)
            obs_gauge_set(f"dist.shard{st.shard}.edges", st.edges_final)
            obs_gauge_set(f"dist.shard{st.shard}.cut_edges", st.cut_edges_final)
        if (
            svc.retry is not None
            or svc.breaker is not None
            or svc.quarantine
            or chaos is not None
        ):
            obs_gauge_set("serve.retries", stats.retries)
            obs_gauge_set("serve.windows_failed", stats.windows_failed)
            obs_gauge_set("serve.shed_windows", stats.shed_windows)
            obs_gauge_set("serve.quarantined_events", stats.quarantined_events)
            obs_gauge_set("serve.breaker_trips", stats.breaker_trips)
            obs_gauge_set("serve.plan_breaker_hits", stats.plan_breaker_hits)
