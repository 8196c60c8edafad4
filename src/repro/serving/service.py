"""The streaming-inference service: ingest -> plan/dispatch -> execute.

Pipeline shape (PiPAD-style preparation/execution overlap):

::

    events ──> [ingest thread] ──(bounded queue)──> [dispatch] ──> [worker pool]
                incremental          backpressure      plan cache      batched
                window builds                          + drift         simulation

* The **ingest thread** runs :class:`~repro.serving.ingest.WindowedIngestor`
  and pushes closed windows into a bounded queue — when execution falls
  behind, the queue fills and ingest blocks (backpressure).
* The **dispatch stage** (caller's thread) runs the overlapped
  :class:`~repro.serving.pipeline.WindowPipeline`: it keeps up to
  ``pipeline_depth`` batches of ``max_batch_windows`` windows in flight,
  resolving each window's plan *sequentially in window order* through
  the :class:`~repro.serving.plan_manager.PlanManager` while earlier
  batches are still executing.  Sequential plan resolution is what makes
  cache decisions — and therefore results — independent of pool timing.
* The **worker pool** simulates the in-flight windows concurrently; the
  dispatch stage collects batches oldest-first, in window order,
  bounding in-flight work at ``pipeline_depth * max_batch_windows``.

Determinism: :func:`serve_offline` runs the plain offline batch pipeline
(window-discretize the whole stream, then price each transition
sequentially) with the identical plan-manager policy.  Its per-window
:class:`~repro.accel.metrics.SimulationResult`\\ s are exactly equal to
the online service's, which the parity tests assert.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # import-cycle guard: durability imports serving.stats
    from ..durability.config import DurabilityConfig

from ..accel.metrics import SimulationResult
from ..core.plan import DGNNSpec
from ..ditile import DiTileAccelerator
from ..graphs.continuous import ContinuousDynamicGraph
from ..graphs.snapshot import GraphSnapshot
from ..obs import gauge_set as obs_gauge_set
from ..obs import span as obs_span
from ..resilience.chaos import ChaosSchedule
from ..resilience.faults import FaultModel
from ..resilience.policies import BreakerConfig, RetryPolicy
from .executor import (
    WindowExecutor,
    WindowRunner,
    simulate_window,
    transition_graph,
)
from .ingest import WindowedIngestor
from .pipeline import QueueBatchSource, WindowPipeline
from .plan_manager import PlanManager
from .stats import ServiceStats, wall_clock

__all__ = ["ServiceConfig", "ServingReport", "StreamingService", "serve_offline"]

_SENTINEL = object()


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable knobs of the streaming service."""

    #: stream-time width of one snapshot window
    window: float = 1.0
    #: window-clock anchor; ``None`` anchors at the first event time
    origin: Optional[float] = None
    #: simulation worker threads (0 = inline sequential execution)
    workers: int = 2
    #: pending windows grouped into one worker-pool batch
    max_batch_windows: int = 4
    #: batches in flight at once (1 = serialized dispatch: each batch is
    #: collected before the next is resolved; results are bit-identical
    #: at every depth — see docs/serving.md "Pipelined execution")
    pipeline_depth: int = 2
    #: bound of the ingest->dispatch queue (the backpressure knob)
    queue_capacity: int = 8
    #: LRU bound of the execution-plan cache
    plan_cache_capacity: int = 32
    #: relative workload change that forces a re-plan on a cache hit
    drift_threshold: float = 0.25
    #: reject late events instead of dropping/counting them
    strict_time_order: bool = False
    # Resilience hooks — all off by default; with every one at its
    # default the service is bit-identical to the pre-resilience code
    # path (the bench counter gate relies on it).
    #: retry window executions with exponential backoff (``None`` = a
    #: failed execution aborts the stream, the pre-resilience behaviour)
    retry: Optional[RetryPolicy] = None
    #: trip a circuit breaker on replan storms, serving the last-good plan
    breaker: Optional[BreakerConfig] = None
    #: divert malformed events to a dead-letter queue instead of raising
    quarantine: bool = False
    #: drop windows when the ingest queue is full instead of blocking
    load_shedding: bool = False
    #: seeded fault-injection schedule (chaos testing only)
    chaos: Optional[ChaosSchedule] = None
    #: hardware fault model applied to every window simulation
    faults: Optional[FaultModel] = None
    #: durable ingest (write-ahead log + checkpoints + crash recovery);
    #: ``None`` runs the exact pre-durability code path
    durability: Optional["DurabilityConfig"] = None

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.durability is not None and self.load_shedding:
            raise ValueError(
                "load_shedding is incompatible with durable ingest: "
                "timing-dependent drops cannot be replayed crash-"
                "consistently (a resumed run must re-serve exactly the "
                "windows the original run served)"
            )
        if self.max_batch_windows < 1:
            raise ValueError("max_batch_windows must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")


@dataclass
class ServingReport:
    """Everything one :meth:`StreamingService.serve` run produced."""

    results: List[SimulationResult]
    stats: ServiceStats

    @property
    def num_windows(self) -> int:
        """Windows served."""
        return len(self.results)

    @property
    def total_cycles(self) -> float:
        """Accelerator cycles summed over all served windows."""
        return sum(r.execution_cycles for r in self.results)


class StreamingService:
    """Serves an event stream through the DiTile pipeline, online."""

    def __init__(
        self,
        model: Optional[DiTileAccelerator] = None,
        config: ServiceConfig = ServiceConfig(),
    ):
        self.model = model if model is not None else DiTileAccelerator()
        self.config = config

    def _plan_manager(self) -> PlanManager:
        return PlanManager(
            self.model,
            capacity=self.config.plan_cache_capacity,
            drift_threshold=self.config.drift_threshold,
            breaker=self.config.breaker,
        )

    def _window_runner(
        self, spec: DGNNSpec, chaos: Optional[ChaosSchedule]
    ) -> WindowRunner:
        return WindowRunner(
            self.model,
            spec,
            chaos=chaos,
            faults=self.config.faults,
            retry=self.config.retry,
        )

    # ------------------------------------------------------------------
    # Online serving
    # ------------------------------------------------------------------
    def serve(
        self, stream: ContinuousDynamicGraph, spec: DGNNSpec
    ) -> ServingReport:
        """Serve ``stream`` end to end and return results plus stats."""
        with obs_span(
            "serve",
            stream=stream.name,
            workers=self.config.workers,
            max_batch_windows=self.config.max_batch_windows,
        ):
            return self._serve(stream, spec)

    def _serve(
        self, stream: ContinuousDynamicGraph, spec: DGNNSpec
    ) -> ServingReport:
        cfg = self.config
        dur = None
        if cfg.durability is not None:
            from ..durability.recovery import DurableRun

            dur = DurableRun(
                cfg.durability,
                window=cfg.window,
                num_vertices=stream.num_vertices,
                origin=cfg.origin,
            ).start()
        try:
            return self._serve_run(stream, spec, dur)
        finally:
            if dur is not None:
                dur.close()

    def _serve_run(
        self,
        stream: ContinuousDynamicGraph,
        spec: DGNNSpec,
        dur=None,
    ) -> ServingReport:
        cfg = self.config
        chaos = (
            cfg.chaos if cfg.chaos is not None and not cfg.chaos.is_quiet else None
        )
        checkpoint = dur.checkpoint if dur is not None else None
        ingestor = WindowedIngestor.for_stream(
            stream,
            window=cfg.window,
            feature_dim=spec.feature_dim,
            origin=cfg.origin,
            strict_time_order=cfg.strict_time_order,
            quarantine=cfg.quarantine,
            initial=checkpoint.snapshot if checkpoint is not None else None,
            start_window=dur.watermark if dur is not None else 0,
        )
        events = stream.events
        if chaos is not None and chaos.poison_rate > 0.0:
            # Poison before logging: the WAL records the stream the
            # service actually consumed, so replay reproduces the exact
            # injected events without re-running the chaos schedule.
            events = chaos.inject(events, num_vertices=stream.num_vertices)
        if dur is not None:
            events = dur.wrap_stream(events)
        window_queue: "queue.Queue" = queue.Queue(maxsize=cfg.queue_capacity)
        stop = threading.Event()
        shed = [0]  # mutated by the ingest thread, read after join

        def _enqueue(item) -> bool:
            """Blocking put that gives up once the dispatcher has stopped
            (so an aborted dispatch loop never strands the ingest thread
            on a full queue)."""
            while not stop.is_set():
                try:
                    window_queue.put(item, timeout=0.05)
                    return True
                except queue.Full:
                    continue
            return False

        def _ingest() -> None:
            try:
                for window in ingestor.windows(events):
                    if dur is not None:
                        # Every event of the window reaches the log before
                        # dispatch can commit it (the commit only syncs).
                        dur.wal.flush()
                    # The span covers the queue hand-off, so its duration
                    # shows backpressure stalls (a full queue) directly.
                    with obs_span("ingest", window=window.index) as sp:
                        if sp.enabled:
                            sp.add("events", window.num_events)
                        if cfg.load_shedding:
                            try:
                                window_queue.put_nowait(window)
                            except queue.Full:
                                shed[0] += 1
                        elif not _enqueue(window):
                            return
                # The sentinel (and any error below) always blocks its way
                # in — shedding only ever drops windows.
                _enqueue(_SENTINEL)
            except BaseException as exc:  # propagate into the dispatch loop
                _enqueue(exc)

        ingest_thread = threading.Thread(
            target=_ingest, name="repro-serve-ingest", daemon=True
        )
        stats = ServiceStats()
        results: List[SimulationResult] = []
        manager = self._plan_manager()
        runner = self._window_runner(spec, chaos)
        prev_snapshot = None
        committer = None
        if dur is not None:
            from ..durability.checkpoint import Checkpoint

            if checkpoint is not None:
                # Restore the committed prefix: served results/records,
                # the execution-failure counters (those windows are never
                # re-executed), and the plan-manager state as of the
                # watermark — everything else (events, late, quarantine)
                # is re-derived identically by the WAL replay itself.
                manager.restore_state(checkpoint.plan_state)
                results.extend(checkpoint.results)
                stats.records.extend(checkpoint.records)
                stats.retries = checkpoint.counters.get("retries", 0)
                stats.windows_failed = checkpoint.counters.get(
                    "windows_failed", 0
                )
                stats.failures.extend(checkpoint.counters.get("failures", []))
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
                    meta={"window": cfg.window, "origin": cfg.origin},
                )

            committer = dur.committer(_capture)
        started = wall_clock()
        ingest_thread.start()
        pool = WindowExecutor(cfg.workers)
        try:
            # Plans still resolve sequentially, in window order, on this
            # thread before any simulation is scheduled — the pipeline
            # only overlaps *when* batches resolve/execute, so cache
            # behaviour (and results) cannot depend on worker timing.
            WindowPipeline(
                source=QueueBatchSource(window_queue, _SENTINEL),
                manager=manager,
                runner=runner,
                pool=pool,
                spec=spec,
                stats=stats,
                results=results,
                depth=cfg.pipeline_depth,
                max_batch_windows=cfg.max_batch_windows,
                prev=prev_snapshot,
                committer=committer,
            ).drive()
        finally:
            # Drain in-flight simulations (queued-but-unstarted ones are
            # cancelled), then release the ingest thread: `stop` breaks
            # any blocking put, so the join cannot hang even when the
            # dispatch loop aborted with the queue full.
            pool.shutdown(wait=True, cancel_pending=True)
            stop.set()
            ingest_thread.join()
        stats.elapsed_s = wall_clock() - started
        stats.windows = len(results)
        stats.events = ingestor.total_events
        stats.late_events = ingestor.late_events
        stats.shed_windows = shed[0]
        stats.quarantined_events = ingestor.quarantined_events
        stats.from_plan_manager(manager)
        if dur is not None:
            dur.finalize_stats(stats)
        obs_gauge_set("serve.plan_cache_hit_rate", stats.plan_hit_rate)
        if (
            cfg.retry is not None
            or cfg.breaker is not None
            or cfg.quarantine
            or cfg.load_shedding
            or chaos is not None
        ):
            obs_gauge_set("serve.retries", stats.retries)
            obs_gauge_set("serve.windows_failed", stats.windows_failed)
            obs_gauge_set("serve.shed_windows", stats.shed_windows)
            obs_gauge_set("serve.quarantined_events", stats.quarantined_events)
            obs_gauge_set("serve.breaker_trips", stats.breaker_trips)
            obs_gauge_set("serve.plan_breaker_hits", stats.plan_breaker_hits)
        return ServingReport(results=results, stats=stats)


def serve_offline(
    stream: ContinuousDynamicGraph,
    spec: DGNNSpec,
    model: Optional[DiTileAccelerator] = None,
    config: ServiceConfig = ServiceConfig(),
) -> List[SimulationResult]:
    """The offline batch pipeline over the same windowed discretization.

    Discretizes the whole stream up front
    (:meth:`ContinuousDynamicGraph.discretize_windows`), then prices each
    window transition sequentially with the identical plan-cache policy.
    This is the determinism reference: :meth:`StreamingService.serve` must
    produce exactly these per-window results.
    """
    model = model if model is not None else DiTileAccelerator()
    service = StreamingService(model, config)
    manager = service._plan_manager()
    discrete = stream.discretize_windows(
        config.window, feature_dim=spec.feature_dim, origin=config.origin
    )
    results: List[SimulationResult] = []
    prev: Optional[GraphSnapshot] = None
    for t in range(discrete.num_snapshots):
        transition = transition_graph(prev, discrete[t], name=f"window-{t}")
        plan, _ = manager.resolve(transition, spec)
        results.append(
            simulate_window(model, spec, transition, plan, faults=config.faults)
        )
        prev = discrete[t]
    return results
