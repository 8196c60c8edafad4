"""Execution-plan cache keyed by workload signature.

Planning a window runs the full scheduler front-end (tiling search,
``Ps``/``Pv`` optimization, Algorithm 2 balance) — far more work than
simulating the window's incremental costs.  The serving layer therefore
caches the scheduler's decision in an LRU keyed by
:class:`~repro.serving.signature.WorkloadSignature` and re-invokes
:class:`~repro.core.scheduler.DiTileScheduler` only when a window's
signature misses the cache.  The signature is the one reuse rule: a
window whose shape moves by more than a bucket gets a new key and so a
fresh plan.

A cached decision is a :class:`WindowPlan`: the tile-array placement
(the ``Ps``/``Pv`` grid and Algorithm 2's balance) and the tiling
``alpha`` — the only parts of an
:class:`~repro.core.plan.ExecutionPlan` a later window executes.  The
scheduler's plan, which holds the transition graph it was computed on,
is dropped as soon as the record is built, so the cache pins no
snapshots and a checkpoint of it costs a few hundred bytes per entry.

Resolution is sequential in window order (the service resolves plans in
its single-threaded dispatch stage), so cache behaviour — and therefore
every served result — is deterministic regardless of worker-pool timing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..baselines.algorithms import Placement
from ..caching import LRUCache
from ..core.plan import DGNNSpec, ExecutionPlan
from ..ditile import DiTileAccelerator
from ..graphs.dynamic import DynamicGraph
from ..obs import span as obs_span
from ..resilience.policies import BreakerConfig, CircuitBreaker
from .signature import WindowProfile, WorkloadSignature

__all__ = ["PlanDecision", "PlanManager", "WindowPlan"]


class PlanDecision(enum.Enum):
    """How a window's plan was obtained."""

    HIT = "hit"  # cached plan reused as-is
    MISS = "miss"  # no cached plan for this signature; scheduler invoked
    BREAKER = "breaker"  # breaker open: last-good plan served, scheduler skipped


@dataclass(frozen=True)
class WindowPlan:
    """What executing a window reads of a scheduler plan."""

    #: the ``Ps x Pv`` grid and balanced utilization on the tile array
    placement: Placement
    #: Algorithm 1's tiling factor
    alpha: int

    @classmethod
    def from_plan(
        cls, model: DiTileAccelerator, plan: ExecutionPlan
    ) -> "WindowPlan":
        """The decision ``model`` executes under ``plan``."""
        return cls(model.placement_from_plan(plan), plan.tiling.alpha)


class PlanManager:
    """LRU-bounded plan cache in front of the DiTile scheduler."""

    def __init__(
        self,
        model: DiTileAccelerator,
        capacity: int = 32,
        breaker: Optional[BreakerConfig] = None,
    ):
        self.model = model
        self._cache: LRUCache[WorkloadSignature, WindowPlan] = LRUCache(capacity)
        self.hits = 0
        self.misses = 0
        # Circuit breaker (optional): `threshold` consecutive misses — a
        # miss storm — trip it open, and while open the last-good plan is
        # served without touching the scheduler.
        self._breaker = CircuitBreaker(breaker) if breaker is not None else None
        self._last_good: Optional[WindowPlan] = None
        self.breaker_hits = 0

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(
        self,
        transition: DynamicGraph,
        spec: DGNNSpec,
        profile: Optional[WindowProfile] = None,
    ) -> Tuple[WindowPlan, PlanDecision]:
        """The plan to execute ``transition`` (its last snapshot's window)
        under, plus how it was obtained.

        ``transition`` is the ingest stage's context graph — the previous
        window's snapshot followed by the current one (just the current
        one for the first window).  A fresh plan is computed on exactly
        this graph; a cached plan is applied to it unchanged.
        """
        with obs_span("resolve") as sp:
            plan, decision = self._resolve(transition, spec, profile)
            if sp.enabled:
                sp.set_attr("decision", decision.value)
            return plan, decision

    def _resolve(
        self,
        transition: DynamicGraph,
        spec: DGNNSpec,
        profile: Optional[WindowProfile],
    ) -> Tuple[WindowPlan, PlanDecision]:
        current = profile or WindowProfile.from_snapshot(transition[-1])
        signature = WorkloadSignature.from_profile(current, spec)
        plan = self._cache.get(signature)
        if (
            plan is None
            and self._breaker is not None
            and not self._breaker.allow()
            and self._last_good is not None
        ):
            # Miss storm with the breaker open: degrade to the last
            # plan the scheduler actually produced instead of invoking
            # it again.  The cache is left untouched, so once the breaker
            # half-opens the storm is re-evaluated on real state.
            self._breaker.record_short_circuit()
            self.breaker_hits += 1
            return self._last_good, PlanDecision.BREAKER
        if plan is None:
            plan = self._invoke_scheduler(transition, spec)
            self._cache.put(signature, plan)
            self.misses += 1
            return plan, PlanDecision.MISS
        if self._breaker is not None:
            self._breaker.record_success()
        self._last_good = plan
        self.hits += 1
        return plan, PlanDecision.HIT

    def _invoke_scheduler(
        self, transition: DynamicGraph, spec: DGNNSpec
    ) -> WindowPlan:
        """Run the full scheduler front-end, feeding the breaker."""
        plan = WindowPlan.from_plan(
            self.model, self.model.scheduler.plan(transition, spec)
        )
        self._last_good = plan
        if self._breaker is not None:
            self._breaker.record_invocation()
        return plan

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Snapshot resolution state for a durability checkpoint.

        Captures the LRU entries (stalest first — re-``put`` in that
        order reproduces the recency order exactly), the decision and
        eviction counters, the last-good plan, and the breaker scalars.
        Every plan is a frozen :class:`WindowPlan` — a placement and a
        tiling factor, with no graph or array — so the snapshot stays a
        few hundred bytes per cached entry, and the shallow copy is
        stable no matter how far resolution runs ahead of the
        checkpoint.  A resumed manager restored from this snapshot makes
        decisions byte-identical to the uninterrupted run — the plan
        half of the recovery parity guarantee.
        """
        state: Dict[str, Any] = {
            "entries": list(self._cache.items()),
            "hits": self.hits,
            "misses": self.misses,
            "breaker_hits": self.breaker_hits,
            "evictions": self._cache.stats.evictions,
            "last_good": self._last_good,
            "breaker": None,
        }
        if self._breaker is not None:
            state["breaker"] = {
                key: value
                for key, value in vars(self._breaker).items()
                if key != "config"
            }
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Apply an :meth:`export_state` snapshot to this (fresh) manager."""
        self._cache.clear()
        for signature, plan in state["entries"]:
            self._cache.put(signature, plan)
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.breaker_hits = state["breaker_hits"]
        self._cache.stats.evictions = state["evictions"]
        self._last_good = state["last_good"]
        if state["breaker"] is not None and self._breaker is not None:
            vars(self._breaker).update(state["breaker"])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Plans currently cached."""
        return len(self._cache)

    @property
    def evictions(self) -> int:
        """Entries dropped by the LRU bound."""
        return self._cache.stats.evictions

    @property
    def breaker_trips(self) -> int:
        """Times the circuit breaker tripped open (0 without a breaker)."""
        return self._breaker.trips if self._breaker is not None else 0

    def __repr__(self) -> str:
        return (
            f"PlanManager(size={self.size}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions}, "
            f"breaker_hits={self.breaker_hits})"
        )
