"""Online streaming-inference service layer.

Turns the offline batch pipeline (event stream -> discretize -> plan ->
simulate) into a three-stage online service:

1. **Ingest** (:mod:`repro.serving.ingest`) — consumes
   :class:`~repro.graphs.continuous.EdgeEvent` streams, assigns events to
   fixed-width time windows, and materializes each window's snapshot
   *incrementally* from the previous one via
   :func:`~repro.graphs.delta.apply_delta` instead of rebuilding from
   scratch.
2. **Plan management** (:mod:`repro.serving.plan_manager`) — caches the
   scheduler's decision (a :class:`~repro.serving.plan_manager.WindowPlan`:
   placement and tiling ``alpha``) in an LRU keyed by a quantized
   workload signature, re-invoking the scheduler only when a window's
   signature misses the cache.
3. **Execution** (:mod:`repro.serving.executor` /
   :mod:`repro.serving.pipeline` / :mod:`repro.serving.service`) —
   batches pending windows, keeps up to ``pipeline_depth`` batches in
   flight on a small worker pool (plan resolution for the next batch
   overlaps execution of the previous one, PiPAD-style), and applies
   bounded-queue backpressure between stages.

Serving is *deterministic*: the per-window
:class:`~repro.accel.metrics.SimulationResult`\\ s are identical to the
offline reference (:func:`~repro.serving.service.serve_offline`) on the
same discretized stream, regardless of worker count, batching, or queue
timing.

Graceful degradation (all off by default — see ``docs/resilience.md``):
retry with exponential backoff
(:class:`~repro.resilience.policies.RetryPolicy`), a plan-manager circuit
breaker serving the last-good plan through plan-miss storms, a dead-letter
queue for malformed events (``quarantine=True``), and a seeded chaos
harness (:class:`~repro.resilience.chaos.ChaosSchedule`).
"""

from .ingest import (
    IncrementalWindowBuilder,
    RejectedEvent,
    Window,
    WindowedIngestor,
    event_fault,
)
from .pipeline import QueueBatchSource, WindowPipeline
from .plan_manager import PlanDecision, PlanManager, WindowPlan
from .service import ServiceConfig, ServingReport, StreamingService, serve_offline
from .signature import WindowProfile, WorkloadSignature
from .stats import ServiceStats, WindowFailure, WindowRecord
from .streams import stream_from_dataset, synthetic_event_stream

__all__ = [
    "IncrementalWindowBuilder",
    "RejectedEvent",
    "event_fault",
    "Window",
    "WindowedIngestor",
    "QueueBatchSource",
    "WindowPipeline",
    "PlanDecision",
    "PlanManager",
    "WindowPlan",
    "ServiceConfig",
    "ServingReport",
    "StreamingService",
    "serve_offline",
    "WindowProfile",
    "WorkloadSignature",
    "ServiceStats",
    "WindowFailure",
    "WindowRecord",
    "stream_from_dataset",
    "synthetic_event_stream",
]
