"""Event release schedules and the percentile rules the benchmark reports by.

A :class:`Pacer` stands in for the stream's ``events`` list: the service's
ingest thread pulls events from it, and it hands each one over no earlier
than its due time.  Due times are fixed when :meth:`Pacer.start` is called
and never shift, so a stalled consumer shows up as lateness (input lag)
instead of silently slowing the schedule down.  A closed-loop, max-rate
replay is the same object with every event due at the start.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, List, Optional, Sequence

__all__ = [
    "Pacer",
    "lag_growth",
    "percentile",
    "samples_beyond",
]


class Pacer:
    """Releases ``events[i]`` at ``start + offsets[i]`` seconds and records
    when each one was actually pulled.

    ``clock`` and ``sleep`` are injectable so the due-time and lag
    arithmetic can be tested on a fake clock.
    """

    def __init__(
        self,
        events: Sequence,
        offsets: Sequence[float],
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if len(events) != len(offsets):
            raise ValueError(
                f"{len(events)} events but {len(offsets)} due offsets"
            )
        if any(b < a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("due offsets must be non-decreasing")
        self._events = events
        self._offsets = offsets
        self._clock = clock
        self._sleep = sleep
        self.t0: Optional[float] = None
        #: clock reading at which each released event was handed over
        self.pulls: List[float] = []
        #: clock reading at which the consumer found the source exhausted
        self.exhausted_at: Optional[float] = None

    def start(self) -> None:
        """Fix the schedule: every due time is relative to this instant."""
        self.t0 = self._clock()

    def __iter__(self):
        if self.t0 is None:
            raise RuntimeError("Pacer.start() must be called before iteration")
        clock, sleep, pulls, t0 = self._clock, self._sleep, self.pulls, self.t0
        for event, offset in zip(self._events, self._offsets):
            due = t0 + offset
            now = clock()
            while now < due:
                sleep(due - now)
                now = clock()
            pulls.append(now)
            yield event
        self.exhausted_at = clock()

    @property
    def released(self) -> int:
        """Events handed to the consumer so far."""
        return len(self.pulls)

    @property
    def schedule_end(self) -> float:
        """Due time of the last event (the start for an empty schedule)."""
        if self.t0 is None:
            raise RuntimeError("Pacer.start() has not been called")
        return self.t0 + (self._offsets[-1] if self._offsets else 0.0)

    def lags(self) -> List[float]:
        """Seconds each released event was pulled after its due time."""
        t0 = self.t0
        return [pull - (t0 + off) for pull, off in zip(self.pulls, self._offsets)]


def lag_growth(lags: Sequence[float]) -> float:
    """Median lag of the last quarter of events minus that of the first.

    Near zero while the consumer keeps up; above capacity the backlog, and
    with it the lag, grows for as long as the run lasts.
    """
    quarter = len(lags) // 4
    if quarter == 0:
        return 0.0
    return statistics.median(lags[-quarter:]) - statistics.median(lags[:quarter])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile."""
    return n - _rank(n, q)


def _rank(n: int, q: float) -> int:
    # round() keeps e.g. 0.95 * 200 from landing a hair above 190.
    return max(1, math.ceil(round(q * n, 9)))


def percentile(values: Sequence[float], q: float, min_beyond: int = 0) -> float:
    """Nearest-rank percentile: the smallest sample covering a ``q`` share.

    Always one of the measured samples (``sorted(values)[ceil(q*n) - 1]``).
    ``min_beyond`` enforces the reporting rule that a tail percentile needs
    that many samples above it; a smaller sample raises ``ValueError``.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    beyond = samples_beyond(n, q)
    if beyond < min_beyond:
        raise ValueError(
            f"p{100 * q:g} of {n} samples has {beyond} beyond it; "
            f"reporting it needs at least {min_beyond}"
        )
    return sorted(values)[_rank(n, q) - 1]
