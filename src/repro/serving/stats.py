"""Service statistics: latency, throughput, plan-cache behaviour, queues.

Everything wall-clock lives here, deliberately separated from the
deterministic :class:`~repro.accel.metrics.SimulationResult`\\ s the
service produces — results are reproducible, service timings are not.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List

__all__ = [
    "wall_clock",
    "timed_call",
    "median",
    "WindowRecord",
    "WindowFailure",
    "ServiceStats",
]


def wall_clock() -> float:
    """Monotonic wall-clock reference for service telemetry, in seconds.

    The single sanctioned wall-clock read of the serving layer: latency
    and throughput numbers are timed against this, never the simulated
    results.  Keeping it here (and nowhere else) is enforced by the
    ``DET001`` lint rule — see ``docs/static-analysis.md``.
    """
    return time.perf_counter()


def timed_call(fn):
    """Run ``fn()`` and return ``(result, seconds)`` against :func:`wall_clock`.

    The one-shot building block of the benchmark runner's
    warmup/repeat/median protocol (:mod:`repro.bench.runner`): timing goes
    through the same sanctioned wall-clock read as service telemetry.
    """
    start = wall_clock()
    result = fn()
    return result, wall_clock() - start


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample covering a ``q`` fraction.

    The convention, uniformly (tested by ``tests/test_stats.py``):

    * empty sample -> ``0.0`` (telemetry for a run that served nothing);
    * single sample -> that sample, for every ``q``;
    * otherwise ``sorted(values)[ceil(q * n) - 1]`` (with the rank clamped
      to at least 1, so ``q = 0`` means the minimum), i.e. always one of
      the measured samples, never an interpolation — a percentile you can
      find in the raw records is easier to reason about;
    * ``q`` outside ``[0, 1]`` is clamped.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    q = min(1.0, max(0.0, q))
    rank = math.ceil(q * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: List[float]) -> float:
    """Nearest-rank median (0 for an empty sample).

    Nearest-rank rather than interpolated: a median that is one of the
    measured samples is easier to reason about in benchmark records.  For
    an even sample size this is the lower middle sample.
    """
    return _percentile(values, 0.50)


@dataclass
class WindowRecord:
    """Per-window service telemetry."""

    index: int
    num_events: int
    latency_s: float  # window close (ingest) -> result available
    plan_decision: str  # "hit" | "miss" | "breaker"


@dataclass
class WindowFailure:
    """A window the service could not serve within its retry budget."""

    index: int
    attempts: int
    error: str  # `type: message` of the final attempt's exception


@dataclass
class ServiceStats:
    """Aggregated report of one :meth:`StreamingService.serve` run."""

    windows: int = 0
    events: int = 0
    late_events: int = 0
    elapsed_s: float = 0.0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_evictions: int = 0
    plan_cache_size: int = 0
    batches: int = 0
    #: dispatch-thread seconds spent resolving plans (cache lookups + any
    #: scheduler invocations) — high with low hit rate = a miss storm
    plan_resolve_s: float = 0.0
    #: worker seconds spent simulating windows — high with a healthy hit
    #: rate = execution itself is the bottleneck
    execute_s: float = 0.0
    # Pipeline telemetry (see docs/serving.md "Pipelined execution").
    #: configured bound on in-flight batches (1 = serialized dispatch)
    pipeline_depth: int = 1
    #: deepest the in-flight batch window actually got during the run
    max_inflight_batches: int = 0
    #: dispatch seconds blocked acquiring the next windows with *nothing*
    #: in flight — the upstream ingest stage is behind
    prefetch_stall_s: float = 0.0
    #: dispatch seconds blocked in ``future.result()`` — execution the
    #: pipeline failed to hide behind prefetch/resolve of later windows
    collect_stall_s: float = 0.0
    #: plan resolutions that reused the previous window's measured
    #: profile because the window's delta was empty (deterministic)
    profile_reuses: int = 0
    max_queue_depth: int = 0
    # Resilience counters (all zero on a fault-free run with the
    # resilience hooks at their defaults — the bench gate relies on it).
    #: execution attempts beyond the first, across all windows
    retries: int = 0
    #: windows that exhausted their retry budget
    windows_failed: int = 0
    #: malformed events diverted to the ingest dead-letter queue
    quarantined_events: int = 0
    #: windows served the last-good plan by an open circuit breaker
    plan_breaker_hits: int = 0
    #: times the plan-manager circuit breaker tripped open
    breaker_trips: int = 0
    # Durability counters (all zero without ``--wal``; a resumed run
    # reports what recovery restored/replayed — see docs/resilience.md
    # "Durability & recovery").
    #: 1 when this run resumed from a durability directory, else 0
    resumes: int = 0
    #: windows restored straight from the checkpoint (never re-executed)
    recovered_windows: int = 0
    #: windows re-executed from replayed WAL events during recovery
    replayed_windows: int = 0
    #: seconds from recovery start until the run re-reached the crash
    #: frontier (lock + checkpoint load + WAL replay + re-execution)
    recovery_s: float = 0.0
    #: events in the write-ahead log at the end of the run
    wal_records: int = 0
    #: checkpoints cut during this run
    checkpoints: int = 0
    queue_depth_samples: List[int] = field(default_factory=list, repr=False)
    records: List[WindowRecord] = field(default_factory=list, repr=False)
    failures: List[WindowFailure] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def events_per_sec(self) -> float:
        """Ingested-event throughput over the whole run."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.events / self.elapsed_s

    @property
    def windows_per_sec(self) -> float:
        """Served-window throughput over the whole run."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.windows / self.elapsed_s

    @property
    def latencies(self) -> List[float]:
        """Per-window close-to-result latencies, in seconds."""
        return [r.latency_s for r in self.records]

    @property
    def p50_latency_s(self) -> float:
        """Median window latency."""
        return _percentile(self.latencies, 0.50)

    @property
    def p95_latency_s(self) -> float:
        """95th-percentile window latency."""
        return _percentile(self.latencies, 0.95)

    @property
    def max_latency_s(self) -> float:
        """Worst window latency."""
        return max(self.latencies, default=0.0)

    @property
    def plan_lookups(self) -> int:
        """Plan-manager resolutions (one per window)."""
        return self.plan_hits + self.plan_misses + self.plan_breaker_hits

    @property
    def plan_hit_rate(self) -> float:
        """Windows served without invoking the scheduler."""
        if self.plan_lookups == 0:
            return 0.0
        return self.plan_hits / self.plan_lookups

    @property
    def mean_queue_depth(self) -> float:
        """Average ingest-queue depth at batch-pull time."""
        if not self.queue_depth_samples:
            return 0.0
        return sum(self.queue_depth_samples) / len(self.queue_depth_samples)

    @property
    def p95_queue_depth(self) -> float:
        """95th-percentile ingest-queue depth (sustained backlog signal)."""
        return _percentile([float(d) for d in self.queue_depth_samples], 0.95)

    @property
    def mean_batch_windows(self) -> float:
        """Average windows grouped per executor batch."""
        if self.batches == 0:
            return 0.0
        return self.windows / self.batches

    @property
    def overlap_ratio(self) -> float:
        """Fraction of worker execution time hidden from the dispatch
        thread — by the worker pool and, at ``pipeline_depth > 1``, by
        prefetch/resolve of later windows overlapping earlier ones.

        ``1 - collect_stall_s / execute_s`` clamped to ``[0, 1]``: a
        fully serialized inline run scores 0.0 (the dispatch thread
        waits out every simulated second), a perfectly overlapped one
        approaches 1.0.  ``0.0`` when nothing executed.
        """
        if self.execute_s <= 0.0:
            return 0.0
        return min(1.0, max(0.0, 1.0 - self.collect_stall_s / self.execute_s))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable multi-line report (the ``repro serve`` output)."""
        lines = [
            f"windows served     {self.windows} "
            f"({self.events} events, {self.late_events} late/dropped)",
            f"wall time          {self.elapsed_s:.3f} s "
            f"({self.events_per_sec:,.0f} events/s, "
            f"{self.windows_per_sec:.1f} windows/s)",
            f"window latency     p50={1e3 * self.p50_latency_s:.2f} ms  "
            f"p95={1e3 * self.p95_latency_s:.2f} ms  "
            f"max={1e3 * self.max_latency_s:.2f} ms",
            f"plan cache         hit rate {self.plan_hit_rate:.1%} "
            f"({self.plan_hits} hits, {self.plan_misses} misses, "
            f"{self.plan_evictions} evictions, {self.plan_cache_size} resident)",
            f"batching           {self.batches} batches, "
            f"{self.mean_batch_windows:.1f} windows/batch",
            f"phase time         plan={1e3 * self.plan_resolve_s:.2f} ms  "
            f"execute={1e3 * self.execute_s:.2f} ms",
            f"pipeline           depth={self.pipeline_depth} "
            f"(max in flight {self.max_inflight_batches}), "
            f"stalls prefetch={1e3 * self.prefetch_stall_s:.2f} ms "
            f"collect={1e3 * self.collect_stall_s:.2f} ms, "
            f"overlap {self.overlap_ratio:.1%}"
            + (
                f", {self.profile_reuses} profile reuses"
                if self.profile_reuses
                else ""
            ),
            f"ingest queue       depth max={self.max_queue_depth} "
            f"mean={self.mean_queue_depth:.1f} p95={self.p95_queue_depth:.1f}",
        ]
        if (
            self.retries
            or self.windows_failed
            or self.quarantined_events
            or self.plan_breaker_hits
            or self.breaker_trips
        ):
            lines.append(
                f"resilience         {self.retries} retries, "
                f"{self.windows_failed} windows failed, "
                f"{self.quarantined_events} events quarantined, "
                f"breaker {self.breaker_trips} trips / "
                f"{self.plan_breaker_hits} short-circuits"
            )
        if self.wal_records or self.checkpoints or self.resumes:
            line = (
                f"durability         {self.wal_records} WAL records, "
                f"{self.checkpoints} checkpoints"
            )
            if self.resumes:
                line += (
                    f"; resumed ({self.recovered_windows} recovered, "
                    f"{self.replayed_windows} replayed, "
                    f"recovery {1e3 * self.recovery_s:.2f} ms)"
                )
            lines.append(line)
        return "\n".join(lines)

    def record_queue_depth(self, depth: int) -> None:
        """Sample the ingest queue depth (called once per batch pull)."""
        self.queue_depth_samples.append(depth)
        self.max_queue_depth = max(self.max_queue_depth, depth)

    def from_plan_manager(self, manager) -> None:
        """Copy the plan manager's counters into this report."""
        self.plan_hits = manager.hits
        self.plan_misses = manager.misses
        self.plan_evictions = manager.evictions
        self.plan_cache_size = manager.size
        self.plan_breaker_hits = manager.breaker_hits
        self.breaker_trips = manager.breaker_trips
