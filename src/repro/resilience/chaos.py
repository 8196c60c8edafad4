"""Chaos harness: seeded worker crashes, injected latency, poison events.

A :class:`ChaosSchedule` is a *pure function* from ``(seed, site)`` to a
fault decision — no mutable state, no wall clock — so two runs with the
same seed and schedule inject exactly the same faults at exactly the same
logical sites (window index x attempt, event position).  That is what
makes end-to-end chaos runs replayable: the deterministic portion of the
outcome (:meth:`~repro.serving.service.ServingReport.results_json`) is
byte-identical across runs.

Three fault families:

* **crashes** — :meth:`ChaosSchedule.crashes` decides per (window,
  attempt) whether the worker raises :class:`InjectedFault` instead of
  simulating; the service's retry policy absorbs them (or records a
  permanent window failure once the budget is spent);
* **latency** — :meth:`ChaosSchedule.latency` returns extra seconds a
  worker sleeps before simulating (wall-clock telemetry moves, results
  don't);
* **poison events** — :meth:`ChaosSchedule.inject` wraps an event stream
  and splices in malformed :class:`~repro.graphs.continuous.EdgeEvent`\\ s
  (non-finite timestamps, out-of-range vertex ids) that the hardened
  ingest quarantines into its dead-letter queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, TYPE_CHECKING

import numpy as np

from ..graphs.continuous import EdgeEvent
from .policies import BreakerConfig, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving imports us)
    from ..core.plan import DGNNSpec
    from ..ditile import DiTileAccelerator
    from ..graphs.continuous import ContinuousDynamicGraph
    from ..serving.service import ServiceConfig, ServingReport

__all__ = [
    "InjectedFault",
    "ChaosSchedule",
    "run_chaos",
]

# Decision domains, mixed into the seed so the draw streams are independent.
_CRASH = 1
_LATENCY = 2
_POISON = 3
_POISON_KIND = 4


class InjectedFault(RuntimeError):
    """A deliberately injected worker failure (chaos testing only)."""


@dataclass(frozen=True)
class ChaosSchedule:
    """Seeded fault-injection schedule for one service run."""

    seed: int = 0
    #: probability a given (window, attempt) execution crashes
    crash_rate: float = 0.0
    #: probability a given (window, attempt) execution is delayed
    latency_rate: float = 0.0
    #: injected delay, in seconds, when latency fires
    latency_s: float = 0.0
    #: probability a poison event is spliced in after a stream position
    poison_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "latency_rate", "poison_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.latency_s < 0:
            raise ValueError("latency_s must be >= 0")

    @property
    def is_quiet(self) -> bool:
        """Whether this schedule can never inject anything."""
        return (
            self.crash_rate == 0.0
            and self.latency_rate == 0.0
            and self.poison_rate == 0.0
        )

    def describe(self) -> str:
        """Human-readable one-liner (the ``repro chaos serve`` header)."""
        if self.is_quiet:
            return f"seed={self.seed}, quiet"
        return (
            f"seed={self.seed}, crash={self.crash_rate:g}, "
            f"latency={self.latency_rate:g}x{self.latency_s:g}s, "
            f"poison={self.poison_rate:g}"
        )

    # ------------------------------------------------------------------
    # Decision draws (stateless, keyed by logical site)
    # ------------------------------------------------------------------
    def _u(self, domain: int, *key: int) -> float:
        return float(np.random.default_rng((self.seed, domain, *key)).random())

    def crashes(self, window_index: int, attempt: int) -> bool:
        """Whether execution attempt ``attempt`` of a window crashes."""
        if self.crash_rate == 0.0:
            return False
        return self._u(_CRASH, window_index, attempt) < self.crash_rate

    def latency(self, window_index: int, attempt: int) -> float:
        """Extra seconds this execution attempt is delayed (0 if none)."""
        if self.latency_rate == 0.0 or self.latency_s == 0.0:
            return 0.0
        if self._u(_LATENCY, window_index, attempt) < self.latency_rate:
            return self.latency_s
        return 0.0

    def poison_after(
        self, position: int, time: float, num_vertices: Optional[int]
    ) -> Optional[EdgeEvent]:
        """The malformed event spliced in after stream position ``position``.

        Alternates (by seeded draw) between a non-finite-timestamp event
        and an out-of-range-vertex event; without ``num_vertices`` only
        the timestamp form is produced.
        """
        if self.poison_rate == 0.0:
            return None
        if self._u(_POISON, position) >= self.poison_rate:
            return None
        bad_vertex = (
            num_vertices is not None
            and self._u(_POISON_KIND, position) < 0.5
        )
        if bad_vertex:
            assert num_vertices is not None
            return EdgeEvent(time, num_vertices + position % 7, 0, "add")
        return EdgeEvent(float("nan"), 0, 0, "add")

    def inject(
        self, events: Iterable[EdgeEvent], num_vertices: Optional[int] = None
    ) -> Iterator[EdgeEvent]:
        """Yield ``events`` with scheduled poison events spliced in."""
        for position, event in enumerate(events):
            yield event
            poison = self.poison_after(position, event.time, num_vertices)
            if poison is not None:
                yield poison


def run_chaos(
    stream: "ContinuousDynamicGraph",
    spec: "DGNNSpec",
    schedule: ChaosSchedule,
    config: Optional["ServiceConfig"] = None,
    model: Optional["DiTileAccelerator"] = None,
) -> "ServingReport":
    """End-to-end chaos run: serve ``stream`` under ``schedule``.

    Starts from ``config`` (or a resilient default with retry, breaker
    and quarantine enabled), forces the schedule in, and returns the
    :class:`~repro.serving.service.ServingReport`; its
    :meth:`~repro.serving.service.ServingReport.results_json` is the
    run's deterministic outcome.
    """
    from dataclasses import replace

    from ..serving.service import ServiceConfig, StreamingService

    if config is None:
        config = ServiceConfig(
            retry=RetryPolicy(max_attempts=4, backoff_s=0.0005),
            breaker=BreakerConfig(),
            quarantine=True,
        )
    config = replace(config, chaos=schedule)
    if config.retry is None:
        raise ValueError(
            "chaos runs need a retry policy; a bare crash would abort the "
            "stream instead of degrading gracefully"
        )
    return StreamingService(model, config).serve(stream, spec)
