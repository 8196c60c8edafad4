"""Execution stage: per-window cost building and simulation.

The unit of execution is one *window transition*: the previous window's
snapshot followed by the current one.  Costs are built on that two-snapshot
graph (the second snapshot takes the incremental path, exactly as the
offline batch pipeline prices snapshot ``t`` given ``t-1``) and only the
current window's :class:`~repro.accel.metrics.SnapshotCosts` is simulated.

Window results are therefore independent of how windows are grouped into
batches or interleaved across workers — the property the service's
determinism guarantee rests on.  The worker pool
(:class:`WindowExecutor`) only controls *when* a window is simulated,
never *what* its result is.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Optional, Tuple, TYPE_CHECKING, TypeVar

from ..accel.metrics import CostSummary, SimulationResult
from ..accel.simulator import AcceleratorSimulator
from ..baselines.algorithms import build_costs
from ..core.plan import DGNNSpec
from ..ditile import DiTileAccelerator
from ..graphs.delta import SnapshotDelta
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import GraphSnapshot
from ..obs import span as obs_span
from .plan_manager import WindowPlan
from .stats import timed_call

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids an import cycle
    from ..resilience.chaos import ChaosSchedule
    from ..resilience.faults import FaultModel
    from ..resilience.policies import RetryPolicy

__all__ = [
    "transition_graph",
    "simulate_window",
    "WindowRunner",
    "WindowExecutor",
]

T = TypeVar("T")


def transition_graph(
    prev: Optional[GraphSnapshot],
    cur: GraphSnapshot,
    name: str = "window",
    delta: Optional[SnapshotDelta] = None,
) -> DynamicGraph:
    """The context graph a window is planned and priced on.

    ``[prev, cur]`` in steady state; ``[cur]`` for the first window, which
    is a cold start (every vertex computed) in both the online and the
    offline path.  ``delta`` is the exact ``prev -> cur`` edge delta when
    the caller holds it (ingest's :attr:`Window.delta`); the graph's
    change detection then reads it instead of diffing the two snapshots.
    """
    if prev is None:
        return DynamicGraph([cur], name=name)
    graph = DynamicGraph([prev, cur], name=name)
    if delta is not None:
        graph.supply_delta(1, delta)
    return graph


def simulate_window(
    model: DiTileAccelerator,
    spec: DGNNSpec,
    transition: DynamicGraph,
    plan: WindowPlan,
    faults: Optional["FaultModel"] = None,
) -> SimulationResult:
    """Simulate the last snapshot of ``transition`` under ``plan``.

    Mirrors :meth:`DiTileAccelerator.build_costs` /
    :meth:`~repro.baselines.base.AcceleratorModel.simulate`, but keeps
    only the current window's snapshot costs so the returned
    :class:`SimulationResult` prices exactly one window.  ``faults``
    models a degraded array (``None`` — the default — is bit-identical
    to the fault-free path).
    """
    algorithm = "ditile" if model.options.enable_reuse else "re"
    costs = build_costs(
        transition,
        spec,
        algorithm,
        plan.placement,
        model.params,
        tiling_alpha=plan.alpha,
    )
    window_costs = CostSummary(
        algorithm="ditile",
        snapshots=[costs.snapshots[-1]],
        load_utilization=costs.load_utilization,
    )
    simulator = AcceleratorSimulator(
        model.hardware,
        model.simulator_params(),
        name=model.name,
        energy_params=model.energy_params(),
        faults=faults,
    )
    return simulator.run(window_costs)


class WindowRunner:
    """The per-window execution policy: chaos injection, timing, retries."""

    def __init__(
        self,
        model: DiTileAccelerator,
        spec: DGNNSpec,
        chaos: Optional["ChaosSchedule"] = None,
        faults: Optional["FaultModel"] = None,
        retry: Optional["RetryPolicy"] = None,
    ):
        self.model = model
        self.spec = spec
        self.chaos = chaos
        self.faults = faults
        self.retry = retry

    def execute(
        self,
        transition: DynamicGraph,
        plan: WindowPlan,
        index: int,
        attempt: int = 1,
    ) -> Tuple[SimulationResult, float]:
        """Simulate one window, timing the execution.

        Returns ``(result, seconds)``; the dispatch thread accumulates the
        seconds into ``stats.execute_s`` so no stats object is mutated
        concurrently.  ``attempt`` keys the chaos schedule so a retried
        execution draws fresh (but replayable) fault decisions.
        """
        from ..resilience.chaos import InjectedFault

        chaos = self.chaos
        if chaos is not None:
            delay = chaos.latency(index, attempt)
            if delay > 0.0:
                time.sleep(delay)
            if chaos.crashes(index, attempt):
                raise InjectedFault(
                    f"injected crash: window {index}, attempt {attempt}"
                )
        with obs_span("execute", window=index) as sp:
            result, seconds = timed_call(
                lambda: simulate_window(
                    self.model, self.spec, transition, plan, faults=self.faults
                )
            )
            if sp.enabled:
                sp.add("cycles", result.execution_cycles)
            return result, seconds

    def execute_resilient(
        self, transition: DynamicGraph, plan: WindowPlan, index: int
    ) -> Tuple[Optional[SimulationResult], float, int, Optional[Tuple[int, str]]]:
        """Run :meth:`execute` under the configured retry policy.

        Returns ``(result, seconds, retries, failure)``: ``failure`` is
        ``None`` on success, else ``(attempts, error)`` once the attempt
        budget is exhausted — a permanent
        window failure the dispatcher records instead of raising, so one
        poisoned window cannot abort the stream.  Without a retry policy
        the first exception propagates (the pre-resilience behaviour).
        """
        policy = self.retry
        if policy is None:
            result, seconds = self.execute(transition, plan, index)
            return result, seconds, 0, None
        retries = 0
        attempt = 1
        while True:
            try:
                result, seconds = self.execute(transition, plan, index, attempt)
                return result, seconds, retries, None
            except Exception as exc:  # noqa: BLE001 - retry boundary
                error = f"{type(exc).__name__}: {exc}"
                if attempt >= policy.max_attempts:
                    return None, 0.0, retries, (attempt, error)
                time.sleep(policy.backoff(attempt))
                retries += 1
                attempt += 1


class _ImmediateFuture(Future):
    """A completed future, for the ``workers=0`` inline mode."""

    def __init__(self, fn: Callable[[], T]):
        super().__init__()
        try:
            self.set_result(fn())
        except BaseException as exc:  # noqa: BLE001 - mirror executor behaviour
            self.set_exception(exc)


class WindowExecutor:
    """A small worker pool (or inline executor) for window simulations.

    ``workers=0`` executes submissions synchronously on the caller's
    thread — the sequential reference mode used by
    :func:`~repro.serving.service.serve_offline` and by parity tests.
    """

    def __init__(self, workers: int = 2):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self._shutdown = False
        self._pool = (
            ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-serve"
            )
            if workers > 0
            else None
        )

    def submit(self, fn: Callable[[], T]) -> "Future[T]":
        """Schedule ``fn``; inline mode runs it before returning."""
        if self._shutdown:
            raise RuntimeError("WindowExecutor has been shut down")
        if self._pool is None:
            return _ImmediateFuture(fn)
        return self._pool.submit(fn)

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Release pool threads.

        Idempotent and exception-safe: a second call (including the one
        from ``__exit__`` after an explicit shutdown, or a cleanup path
        re-entered after an error) is a no-op.  ``cancel_pending`` drops
        queued-but-unstarted submissions — in-flight ones always run to
        completion when ``wait`` is true, so no worker is left writing
        into torn-down state.
        """
        if self._shutdown:
            return
        self._shutdown = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=cancel_pending)

    def __enter__(self) -> "WindowExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()
