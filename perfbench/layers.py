"""Per-layer tracing from the benchmark's side of the API.

:class:`LayerTracer` wraps the public entry point of every serving layer,
patching the name where the service looks it up (a module global such as
``repro.serving.executor.build_costs``, or a class attribute such as
``WindowRunner.execute``).  Each wrapped call becomes a span holding its
wall time and its busy time (CPU time of the calling thread inside the
call); wall minus busy is the time the call waited (for the interpreter
lock, a lock, a sleep or the disk).  Busy and wait are inclusive of nested
wrapped calls.

Every span carries the index of the window it worked on: the entry points
that receive it (``close_window``'s timestamp, ``execute``'s index, a
checkpoint's watermark, the transition graph's name) tag it, nested calls
inherit it from the enclosing span on their thread, and WAL appends are
mapped to a window through the event's stream position.  WAL appends are
aggregated to one span per window instead of one per event.

Spans stay in memory; the caller writes them out when the run ends.
Nothing under ``src/`` changes: :meth:`LayerTracer.active` installs the
wrappers and always restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "LayerTracer",
    "Span",
    "TARGETS",
    "layer_metrics",
    "per_layer_table",
]

WindowOf = Optional[Callable[[tuple, dict], Optional[int]]]


def _kwarg(name: str) -> WindowOf:
    return lambda args, kwargs: kwargs.get(name)


def _positional(pos: int, name: str) -> WindowOf:
    def window_of(args, kwargs):
        return args[pos] if len(args) > pos else kwargs.get(name)

    return window_of


def _transition_window(args, kwargs) -> Optional[int]:
    # The pipeline and serve_offline both name transitions "window-<index>".
    name = getattr(args[1], "name", "")
    head, _, tail = name.rpartition("-")
    return int(tail) if head == "window" and tail.isdigit() else None


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: the metric prefix and where to patch it."""

    name: str
    module: str
    qualname: str
    window_of: WindowOf = None


#: layer entry points, in pipeline order; nesting (inclusive times):
#: close_window > apply_delta, resolve > scheduler > redundancy,
#: execute.window > build_costs, simulate, commit.window > wal_sync, checkpoint
TARGETS = (
    Target("ingest.close_window", "repro.serving.ingest",
           "IncrementalWindowBuilder.close_window", _kwarg("timestamp")),
    Target("ingest.apply_delta", "repro.serving.ingest", "apply_delta",
           _kwarg("timestamp")),
    Target("plan.resolve", "repro.serving.plan_manager", "PlanManager.resolve",
           _transition_window),
    Target("plan.scheduler", "repro.core.scheduler", "DiTileScheduler.plan"),
    Target("plan.redundancy", "repro.core.redundancy", "RedundancyAnalysis.analyze"),
    Target("execute.window", "repro.serving.executor", "WindowRunner.execute",
           _positional(3, "index")),
    Target("execute.build_costs", "repro.serving.executor", "build_costs"),
    Target("execute.simulate", "repro.accel.simulator", "AcceleratorSimulator.run"),
    Target("commit.window", "repro.durability.recovery", "WindowCommitter.commit",
           _positional(1, "index")),
    Target("commit.wal_append", "repro.durability.wal", "WriteAheadLog.append"),
    Target("commit.wal_sync", "repro.durability.wal", "WriteAheadLog.sync"),
    Target("commit.checkpoint", "repro.durability.checkpoint", "CheckpointStore.save",
           lambda args, kwargs: args[1].watermark - 1),
)

#: per-event entry points, aggregated into one span per window
_AGGREGATED = {"commit.wal_append"}


@dataclass
class Span:
    """One wrapped call (or, for aggregated targets, one window's calls)."""

    id: int
    parent: Optional[int]
    name: str
    window: Optional[int]
    thread: str
    start: float  # seconds after the tracer's epoch
    wall: float
    busy: float
    calls: int = 1
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def wait(self) -> float:
        return max(0.0, self.wall - self.busy)


def _resolve(target: Target):
    owner: Any = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class LayerTracer:
    """Collects spans from the wrapped layer entry points.

    ``window_of_position`` maps a stream position to its window, which
    tags the aggregated WAL-append spans.
    """

    def __init__(self, window_of_position: Sequence[int] = ()):
        self.spans: List[Span] = []
        self._window_of_position = window_of_position
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._id_lock = threading.Lock()
        self._aggregates: Dict[tuple, Span] = {}
        self._epoch = time.perf_counter()

    def _next_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, target: Target, func: Callable) -> Callable:
        if target.name in _AGGREGATED:
            return self._wrap_aggregated(target, func)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            window = target.window_of(args, kwargs) if target.window_of else None
            if window is None and parent is not None:
                window = parent.window
            span = Span(
                id=tracer._next_id(),
                parent=parent.id if parent is not None else None,
                name=target.name,
                window=window,
                thread=threading.current_thread().name,
                start=0.0,
                wall=0.0,
                busy=0.0,
            )
            stack.append(span)
            busy0 = time.thread_time()
            wall0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.wall = time.perf_counter() - wall0
                span.busy = time.thread_time() - busy0
                span.start = wall0 - tracer._epoch
                stack.pop()
                tracer.spans.append(span)
            tracer._observe(span, result)
            return result

        return wrapper

    def _wrap_aggregated(self, target: Target, func: Callable) -> Callable:
        tracer = self
        windows = self._window_of_position

        @functools.wraps(func)
        def wrapper(self_, position, *args, **kwargs):
            busy0 = time.thread_time()
            wall0 = time.perf_counter()
            try:
                return func(self_, position, *args, **kwargs)
            finally:
                wall = time.perf_counter() - wall0
                busy = time.thread_time() - busy0
                window = windows[position] if position < len(windows) else None
                key = (target.name, window)
                span = tracer._aggregates.get(key)
                if span is None:
                    span = tracer._aggregates[key] = Span(
                        id=tracer._next_id(),
                        parent=None,
                        name=target.name,
                        window=window,
                        thread=threading.current_thread().name,
                        start=wall0 - tracer._epoch,
                        wall=0.0,
                        busy=0.0,
                        calls=0,
                    )
                span.calls += 1
                span.wall += wall
                span.busy += busy

        return wrapper

    @staticmethod
    def _observe(span: Span, result: Any) -> None:
        if span.name == "plan.resolve":
            span.attrs["decision"] = result[1].value
        elif span.name == "commit.checkpoint":
            span.attrs["bytes"] = os.path.getsize(result)

    @contextlib.contextmanager
    def active(self) -> Iterator["LayerTracer"]:
        """Install every wrapper; the originals are restored on exit."""
        saved = []
        try:
            for target in TARGETS:
                owner, attr = _resolve(target)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, raw)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            self.spans.extend(self._aggregates.values())
            self._aggregates.clear()


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
_STATS_METRICS = (
    ("plan.hit_rate", "ratio", "higher"),
    ("execute.retries", "count", "lower"),
    ("execute.windows_failed", "count", "lower"),
    ("pipeline.prefetch_stall_s", "s", "lower"),
    ("pipeline.collect_stall_s", "s", "lower"),
    ("pipeline.queue_depth_mean", "windows", "lower"),
    ("dispatch.unattributed_s", "s", "lower"),
    ("commit.checkpoint_bytes", "bytes", "lower"),
    ("commit.wal_bytes", "bytes", "lower"),
    ("accel.sim_cycles", "cycles", "lower"),
    ("accel.compute_cycles", "cycles", "lower"),
    ("accel.on_chip_cycles", "cycles", "lower"),
    ("accel.off_chip_cycles", "cycles", "lower"),
    ("accel.overhead_cycles", "cycles", "lower"),
    ("accel.dram_bytes", "bytes", "lower"),
    ("accel.noc_byte_hops", "byte-hops", "lower"),
    ("accel.macs", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_table() -> List[Dict[str, str]]:
    """Every per-layer metric a traced run reports: name, unit, better."""
    table = []
    for target in TARGETS:
        table.append({"name": f"{target.name}.calls", "unit": "count", "better": "lower"})
        table.append({"name": f"{target.name}.busy_s", "unit": "s", "better": "lower"})
        table.append({"name": f"{target.name}.wait_s", "unit": "s", "better": "lower"})
    for name, unit, better in _STATS_METRICS:
        table.append({"name": name, "unit": unit, "better": better})
    return table


def accel_metrics(results) -> Dict[str, float]:
    """Simulated-accelerator totals over a serve's windows (deterministic)."""
    return {
        "accel.sim_cycles": sum(r.cycles.total for r in results),
        "accel.compute_cycles": sum(r.cycles.compute for r in results),
        "accel.on_chip_cycles": sum(r.cycles.on_chip for r in results),
        "accel.off_chip_cycles": sum(r.cycles.off_chip for r in results),
        "accel.overhead_cycles": sum(r.cycles.overhead for r in results),
        "accel.dram_bytes": sum(r.dram_bytes for r in results),
        "accel.noc_byte_hops": sum(r.noc_byte_hops for r in results),
        "accel.macs": sum(r.total_macs for r in results),
    }


def layer_metrics(
    spans: Sequence[Span], stats, results, serve_wall: float, wal_bytes: int
) -> Dict[str, float]:
    """One traced serve's per-layer metrics (all but ``trace.overhead_frac``)."""
    metrics: Dict[str, float] = {}
    for target in TARGETS:
        own = [s for s in spans if s.name == target.name]
        metrics[f"{target.name}.calls"] = float(sum(s.calls for s in own))
        metrics[f"{target.name}.busy_s"] = sum(s.busy for s in own)
        metrics[f"{target.name}.wait_s"] = sum(s.wait for s in own)
    resolves = [s for s in spans if s.name == "plan.resolve"]
    hits = sum(1 for s in resolves if s.attrs.get("decision") == "hit")
    commit_wall = sum(s.wall for s in spans if s.name == "commit.window")
    metrics.update(
        {
            "plan.hit_rate": hits / len(resolves) if resolves else 0.0,
            "execute.retries": float(stats.retries),
            "execute.windows_failed": float(stats.windows_failed),
            "pipeline.prefetch_stall_s": stats.prefetch_stall_s,
            "pipeline.collect_stall_s": stats.collect_stall_s,
            "pipeline.queue_depth_mean": stats.mean_queue_depth,
            # Dispatch-thread time no layer accounts for: serve wall minus
            # plan resolution, commit, and the two pipeline stalls.
            "dispatch.unattributed_s": serve_wall
            - stats.plan_resolve_s
            - commit_wall
            - stats.prefetch_stall_s
            - stats.collect_stall_s,
            "commit.checkpoint_bytes": float(
                sum(s.attrs.get("bytes", 0) for s in spans)
            ),
            "commit.wal_bytes": float(wal_bytes),
        }
    )
    metrics.update(accel_metrics(results))
    return metrics
