"""Fault-tolerance policies of the serving layer: retry and circuit breaking.

Both policies are deliberately *deterministic state machines*: given the
same sequence of failures (e.g. from a seeded
:class:`~repro.resilience.chaos.ChaosSchedule`), retry counts and breaker
transitions replay identically, which the chaos determinism tests assert.
Wall-clock only enters through backoff *sleeps* — delays, never decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy", "BreakerConfig", "CircuitBreaker"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry budget for one window execution.

    Attempts are the only bound, so whether a window fails is a function
    of the fault sequence, never of how long the attempts took.
    """

    max_attempts: int = 3
    backoff_s: float = 0.001
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based failed attempts)."""
        if attempt < 1:
            return 0.0
        return self.backoff_s * self.multiplier ** (attempt - 1)


@dataclass(frozen=True)
class BreakerConfig:
    """Tunables of the plan-manager circuit breaker.

    ``threshold`` consecutive scheduler invocations (plan-cache misses,
    i.e. a miss storm) trip the breaker open; while open, the next
    ``cooldown`` misses are served the last-good plan without touching
    the scheduler, after which the breaker half-opens and one real
    resolution is allowed through.
    """

    threshold: int = 4
    cooldown: int = 8

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.cooldown < 1:
            raise ValueError("cooldown must be >= 1")


class CircuitBreaker:
    """Deterministic closed -> open -> half-open breaker state machine."""

    def __init__(self, config: BreakerConfig = BreakerConfig()):
        self.config = config
        self.trips = 0
        self._consecutive = 0
        self._open_remaining = 0

    @property
    def is_open(self) -> bool:
        """Whether resolutions are currently being short-circuited."""
        return self._open_remaining > 0

    def allow(self) -> bool:
        """Whether the expensive operation (scheduler) may run now."""
        return self._open_remaining == 0

    def record_success(self) -> None:
        """A cheap resolution succeeded (cache hit): the storm is over."""
        self._consecutive = 0

    def record_invocation(self) -> None:
        """The expensive operation ran; trips the breaker on a storm."""
        self._consecutive += 1
        if self._consecutive >= self.config.threshold:
            self._open_remaining = self.config.cooldown
            self._consecutive = 0
            self.trips += 1

    def record_short_circuit(self) -> None:
        """One degraded serve while open; counts down to half-open."""
        if self._open_remaining > 0:
            self._open_remaining -= 1

    def __repr__(self) -> str:
        state = "open" if self.is_open else "closed"
        return (
            f"CircuitBreaker({state}, trips={self.trips}, "
            f"consecutive={self._consecutive}, "
            f"open_remaining={self._open_remaining})"
        )
