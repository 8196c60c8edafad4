"""Pipelined window dispatch: overlap ingest, plan resolution, and execution.

The serialized dispatch discipline pulled a batch of windows, resolved
each window's plan in order, submitted the batch to the worker pool, and
then **blocked** collecting every future before pulling the next batch —
so plan resolution for batch ``k+1`` idled through exactly the execution
time of batch ``k``, and ingest could run at most ``queue_capacity``
windows ahead.  PiPAD (PAPERS.md) overlaps
snapshot preparation with computation and adds frame-level parallelism
across independent windows; this module is that restructure for the
serving layer.

:class:`WindowPipeline` keeps up to ``depth`` batches *in flight*:

::

    fill   ── pull windows ─▶ resolve plans (in window order) ─▶ submit
      │          ▲                                                 │
      │          │ bounded by ``depth`` batches                    ▼
    collect ◀── oldest batch's futures, in order ◀──────── worker pool

* **Fill** pulls the next batch off the ingest queue
  (:class:`QueueBatchSource`), resolves its plans sequentially, and
  submits it — repeating until
  ``depth`` batches are in flight or the source has nothing ready.
  With work already in flight the pull is non-blocking, so a slow
  upstream never stalls collection; with nothing in flight it blocks,
  and that wait is recorded as ``prefetch_stall_s``.
* **Collect** pops the *oldest* in-flight batch and waits out its
  futures in window order; the wait is recorded as ``collect_stall_s``
  — execution time the pipeline failed to hide.

``depth=1`` is exactly the serialized discipline (fill one batch,
collect it, repeat).  Results are bit-identical at **every** depth
because the pipeline changes only *when* windows are resolved and
simulated, never *what* is resolved: plans still resolve sequentially
in window order on the dispatch thread (cache decisions cannot depend
on pool timing), windows are still priced on their own transition
graphs (:mod:`repro.serving.executor`), and results are still collected
in window order.  The parity sweeps in ``tests/test_serving.py`` pin
this across depths.

The fill stage also short-circuits workload measurement: a window whose
delta is empty has — by construction of the incremental ingest path —
the *same* snapshot as its predecessor, so its :class:`WindowProfile`
is reused instead of re-measured (``profile_reuses``), eliminating the
wasted ``resolve`` span time empty windows used to show in the phase
breakdown.
"""

from __future__ import annotations

import queue as queue_mod
from collections import deque
from typing import Deque, List, NamedTuple, Optional

from ..accel.metrics import SimulationResult
from ..core.plan import DGNNSpec
from ..graphs.snapshot import GraphSnapshot
from ..obs import span as obs_span
from .executor import WindowExecutor, WindowRunner, transition_graph
from .ingest import Window
from .plan_manager import PlanManager
from .signature import WindowProfile
from .stats import ServiceStats, WindowFailure, WindowRecord, timed_call, wall_clock

__all__ = ["QueueBatchSource", "WindowPipeline"]


class QueueBatchSource:
    """Batches windows off the ingest thread's bounded queue.

    Mirrors the original dispatch loop's drain discipline exactly: one
    (possibly blocking) head pull, then non-blocking drains up to the
    batch bound.  A :class:`BaseException` item re-raises on the
    dispatch thread (the ingest thread's error hand-off) and the
    sentinel marks exhaustion.  Consecutive pulls yield a gap-free
    window sequence: the source owns ordering, the pipeline owns
    overlap.
    """

    def __init__(self, window_queue, sentinel: object):
        self._queue = window_queue
        self._sentinel = sentinel
        self._done = False

    def pull(self, max_windows: int, block: bool) -> Optional[List[Window]]:
        """The next 1..``max_windows`` windows, in window order.

        ``block=True`` waits until at least one window is available and
        returns ``None`` only when the stream is exhausted;
        ``block=False`` returns ``None`` as soon as nothing is ready
        (the pipeline goes and collects finished work instead).
        """
        if self._done:
            return None
        if block:
            item = self._queue.get()
        else:
            try:
                item = self._queue.get_nowait()
            except queue_mod.Empty:
                return None
        batch: List[Window] = []
        while True:
            if item is self._sentinel:
                self._done = True
                break
            if isinstance(item, BaseException):
                raise item
            batch.append(item)
            if len(batch) >= max_windows:
                break
            try:
                item = self._queue.get_nowait()
            except queue_mod.Empty:
                break
        return batch or None

    def depth(self) -> int:
        """Windows buffered upstream right now (telemetry only)."""
        return self._queue.qsize()


class _InFlight(NamedTuple):
    """One submitted window awaiting collection."""

    window: Window
    decision_value: str
    future: "object"  # Future[(result, seconds, retries, failure)]
    #: plan-manager snapshot taken right after this window's plan
    #: resolved (durable runs only) — the state a checkpoint at this
    #: window must carry.  Resolution runs ahead of commit at depth > 1,
    #: so exporting at commit time would leak future resolutions into
    #: the checkpoint and break post-resume decision parity.
    plan_state: Optional[dict] = None


class WindowPipeline:
    """The overlapped fill/collect dispatch loop of
    :class:`~repro.serving.service.StreamingService`.

    Mutates ``stats`` and appends to ``results`` exactly as the
    serialized loop did; the caller still owns pool/ingest teardown.
    """

    def __init__(
        self,
        source: QueueBatchSource,
        manager: PlanManager,
        runner: WindowRunner,
        pool: WindowExecutor,
        spec: DGNNSpec,
        stats: ServiceStats,
        results: List[SimulationResult],
        depth: int = 1,
        max_batch_windows: int = 4,
        prev: Optional[GraphSnapshot] = None,
        committer=None,
    ):
        if depth < 1:
            raise ValueError(f"pipeline depth must be >= 1, got {depth}")
        self._source = source
        self._manager = manager
        self._runner = runner
        self._pool = pool
        self._spec = spec
        self._stats = stats
        self._results = results
        self.depth = depth
        self.max_batch_windows = max_batch_windows
        #: predecessor snapshot of the first window — ``None`` on a fresh
        #: run, the checkpointed snapshot on a durable resume (so the
        #: first re-executed window's transition graph matches the
        #: uninterrupted run's exactly)
        self._prev: Optional[GraphSnapshot] = prev
        #: durability commit barrier
        #: (:class:`~repro.durability.recovery.WindowCommitter`);
        #: ``None`` keeps the pre-durability code path byte-identical
        self._committer = committer
        self._profile: Optional[WindowProfile] = None
        self._in_flight: Deque[List[_InFlight]] = deque()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def drive(self) -> None:
        """Drive the source to exhaustion; returns with nothing in flight.

        On an exception (ingest hand-off, resolve failure, a window
        failure with no retry policy) in-flight futures are abandoned to
        the caller's pool shutdown — identical to the serialized loop.
        """
        self._stats.pipeline_depth = self.depth
        while True:
            self._fill()
            if not self._in_flight:
                break
            self._collect(self._in_flight.popleft())

    # ------------------------------------------------------------------
    # Fill stage: pull -> resolve (in order) -> submit
    # ------------------------------------------------------------------
    def _fill(self) -> None:
        while len(self._in_flight) < self.depth:
            block = not self._in_flight
            upstream = self._source.depth()
            started = wall_clock()
            batch = self._source.pull(self.max_batch_windows, block)
            if block:
                # Nothing was executing, so every second here is the
                # upstream ingest stage on the critical path — the stall
                # a deeper pipeline cannot fix.
                self._stats.prefetch_stall_s += wall_clock() - started
            if batch is None:
                return
            self._stats.record_queue_depth(upstream)
            self._submit(batch)

    def _window_profile(self, window: Window) -> WindowProfile:
        """The window's workload profile, reusing the previous window's
        measurement when the delta is empty (the snapshot is unchanged
        by construction of the incremental ingest path)."""
        if window.delta.num_changes == 0 and self._profile is not None:
            self._stats.profile_reuses += 1
        else:
            self._profile = WindowProfile.from_snapshot(window.snapshot)
        return self._profile

    def _submit(self, batch: List[Window]) -> None:
        self._stats.batches += 1
        entries: List[_InFlight] = []
        for window in batch:
            with obs_span("window", index=window.index) as sp:
                transition = transition_graph(
                    self._prev,
                    window.snapshot,
                    name=f"window-{window.index}",
                    delta=window.delta,
                )
                profile = self._window_profile(window)
                (plan, decision), resolve_s = timed_call(
                    lambda t=transition, p=profile: self._manager.resolve(
                        t, self._spec, profile=p
                    )
                )
                self._stats.plan_resolve_s += resolve_s
                if sp.enabled:
                    sp.set_attr("decision", decision.value)
                    sp.add("events", window.num_events)
            entries.append(
                _InFlight(
                    window=window,
                    decision_value=decision.value,
                    future=self._pool.submit(
                        lambda t=transition, p=plan, i=window.index: (
                            self._runner.execute_resilient(t, p, i)
                        )
                    ),
                    plan_state=(
                        self._manager.export_state()
                        if self._committer is not None
                        else None
                    ),
                )
            )
            self._prev = window.snapshot
        self._in_flight.append(entries)
        self._stats.max_inflight_batches = max(
            self._stats.max_inflight_batches, len(self._in_flight)
        )

    # ------------------------------------------------------------------
    # Collect stage: oldest batch, futures in window order
    # ------------------------------------------------------------------
    def _collect(self, entries: List[_InFlight]) -> None:
        stats = self._stats
        first, last = entries[0].window.index, entries[-1].window.index
        with obs_span("collect", first=first, last=last) as sp:
            stall_s = 0.0
            for window, decision_value, future, plan_state in entries:
                started = wall_clock()
                result, execute_s, retries, failure = future.result()
                stall_s += wall_clock() - started
                stats.execute_s += execute_s
                stats.retries += retries
                if failure is not None:
                    attempts, error = failure
                    stats.windows_failed += 1
                    stats.failures.append(
                        WindowFailure(
                            index=window.index, attempts=attempts, error=error
                        )
                    )
                else:
                    self._results.append(result)
                    stats.records.append(
                        WindowRecord(
                            index=window.index,
                            num_events=window.num_events,
                            latency_s=wall_clock() - window.closed_at,
                            plan_decision=decision_value,
                        )
                    )
                if self._committer is not None:
                    # The commit barrier: a window — served or recorded
                    # failed — is durable before the next one collects.
                    self._committer.commit(
                        window.index, window.snapshot, plan_state
                    )
            stats.collect_stall_s += stall_s
            if sp.enabled:
                sp.set_attr("stall_s", stall_s)
