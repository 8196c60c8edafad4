"""``repro.resilience`` — fault injection and fault tolerance, both halves.

**Hardware half** (:mod:`repro.resilience.faults`): a seeded, immutable
:class:`FaultModel` (failed tiles, links, Re-Link bypasses) consumed by
:mod:`repro.accel.routing` (detours around dead links, bypass fallbacks),
:mod:`repro.accel.noc` (degraded path counts and hop averages) and
:mod:`repro.accel.simulator` (compute remapping onto surviving tiles plus
a per-class reroute-penalty breakdown).

**Serving half** (:mod:`repro.resilience.policies` /
:mod:`repro.resilience.chaos`): retry with exponential backoff, a
circuit breaker that serves the last-good plan through plan-miss storms,
and a seeded :class:`ChaosSchedule` (worker crashes, injected latency,
poison events) driving end-to-end chaos tests.

All fault hooks are **off by default**; with ``faults=None`` and no chaos
schedule the fault-free path is bit-identical to the unfaulted code (the
bench counters gate this in CI).  See ``docs/resilience.md``.
"""

from .chaos import ChaosSchedule, InjectedFault, run_chaos
from .faults import FaultModel, FaultSpecError, parse_fault_spec
from .policies import BreakerConfig, CircuitBreaker, RetryPolicy

__all__ = [
    "FaultModel",
    "FaultSpecError",
    "parse_fault_spec",
    "RetryPolicy",
    "BreakerConfig",
    "CircuitBreaker",
    "ChaosSchedule",
    "InjectedFault",
    "run_chaos",
]
