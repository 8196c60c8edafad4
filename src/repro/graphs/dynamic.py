"""Discrete-time dynamic graph: a sequence of snapshots (paper Eq. 1).

``DG = {G^1, G^2, ..., G^T}``.  On top of the raw snapshot sequence this
module provides the similarity analysis the paper's redundancy-free machinery
depends on: which vertices changed between consecutive snapshots, the
dissimilarity rate ``Dis`` (paper §4.2, Eq. 14), and the L-hop *affected*
sets that bound how far a change propagates through an L-layer GNN.

Every one of them is read off one exact edge delta per transition
(:meth:`DynamicGraph.transition_delta`).  The delta is diffed from the two
snapshots on first use, unless the caller already holds it: the streaming
service hands each window's ingest delta over, so a served window is
analysed in O(delta), not O(edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..caching import LRUCache
from . import delta as _delta
from .snapshot import GraphSnapshot, sorted_unique

__all__ = ["DynamicGraph", "DynamicGraphStats"]


@dataclass(frozen=True)
class DynamicGraphStats:
    """Aggregate statistics of a dynamic graph, used by the analytic models."""

    num_snapshots: int
    num_vertices: List[int]
    num_edges: List[int]
    feature_dim: int
    avg_vertices: float
    avg_edges: float
    avg_dissimilarity: float
    dissimilarity: List[float]

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"T={self.num_snapshots} V~{self.avg_vertices:.0f} "
            f"E~{self.avg_edges:.0f} F={self.feature_dim} "
            f"Dis~{self.avg_dissimilarity:.3f}"
        )


class DynamicGraph:
    """A sequence of :class:`GraphSnapshot` sharing one vertex id space.

    All snapshots must agree on ``feature_dim``.  Vertex counts may differ
    between snapshots (vertices may be added over time); vertex ids are
    stable, i.e. vertex ``v`` denotes the same entity in every snapshot that
    contains it.
    """

    #: default bound on the per-transition delta memo that change detection
    #: reads; snapshots are indexed ``0..T-1``, so this only bites for very
    #: long histories (e.g. graphs grown indefinitely by a streaming service)
    DEFAULT_CHANGED_CACHE_CAPACITY = 1024

    def __init__(
        self,
        snapshots: Sequence[GraphSnapshot],
        name: str = "dynamic-graph",
        changed_cache_capacity: Optional[int] = None,
    ):
        snapshots = list(snapshots)
        if not snapshots:
            raise ValueError("a dynamic graph needs at least one snapshot")
        feature_dims = {s.feature_dim for s in snapshots}
        if len(feature_dims) != 1:
            raise ValueError(f"snapshots disagree on feature_dim: {feature_dims}")
        # Each snapshot was validated when it was built: re-stamp it only.
        self.snapshots: List[GraphSnapshot] = [
            s.restamped(t) for t, s in enumerate(snapshots)
        ]
        self.name = name
        if changed_cache_capacity is None:
            changed_cache_capacity = self.DEFAULT_CHANGED_CACHE_CAPACITY
        self._changed_cache: LRUCache = LRUCache(changed_cache_capacity)

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, t: int) -> GraphSnapshot:
        return self.snapshots[t]

    def __iter__(self) -> Iterator[GraphSnapshot]:
        return iter(self.snapshots)

    @property
    def num_snapshots(self) -> int:
        """``T`` in the paper's notation."""
        return len(self.snapshots)

    @property
    def feature_dim(self) -> int:
        """Input feature width, constant across snapshots."""
        return self.snapshots[0].feature_dim

    @property
    def max_vertices(self) -> int:
        """Largest vertex count over all snapshots."""
        return max(s.num_vertices for s in self.snapshots)

    # ------------------------------------------------------------------
    # Change / similarity analysis
    # ------------------------------------------------------------------
    def transition_delta(self, t: int) -> _delta.SnapshotDelta:
        """The exact edge delta from snapshot ``t-1`` to ``t`` (``t >= 1``).

        Memoized per transition: a delta given to :meth:`supply_delta`, or
        else :func:`~repro.graphs.delta.snapshot_delta` of the two
        snapshots, computed on first use.
        """
        if not 1 <= t < self.num_snapshots:
            raise IndexError(f"no transition into snapshot {t}")
        delta = self._changed_cache.get(t)
        if delta is None:
            delta = _delta.snapshot_delta(self.snapshots[t - 1], self.snapshots[t])
            self._changed_cache.put(t, delta)
        return delta

    def supply_delta(self, t: int, delta: _delta.SnapshotDelta) -> None:
        """Memoize ``delta`` as the transition ``t-1 -> t``.

        ``delta`` must equal ``snapshot_delta(self[t-1], self[t])``, as a
        streaming window's ingest delta does; only its edge count is
        checked here.
        """
        if not 1 <= t < self.num_snapshots or (
            self.snapshots[t - 1].num_edges + delta.num_added - delta.num_removed
            != self.snapshots[t].num_edges
        ):
            raise ValueError(f"delta does not lead from snapshot {t - 1} to {t}")
        self._changed_cache.put(t, delta)

    def changed_vertices(self, t: int) -> np.ndarray:
        """Vertices whose in-neighbour row differs between ``t-1`` and ``t``.

        For ``t == 0`` every vertex counts as changed (everything must be
        computed for the first snapshot).  A vertex also counts as changed
        when it exists in only snapshot ``t``, or when its input features
        changed (for feature-carrying graphs).  The rows are compared
        exactly: they are the destinations of the transition's edge delta.
        """
        cur = self.snapshots[t]
        if t == 0:
            return np.arange(cur.num_vertices, dtype=np.int64)
        prev = self.snapshots[t - 1]
        common = min(prev.num_vertices, cur.num_vertices)
        touched = self.transition_delta(t).touched_vertices()
        changed = touched[: np.searchsorted(touched, common)]
        if prev.features is not None and cur.features is not None:
            feature_diff = np.any(
                prev.features[:common] != cur.features[:common], axis=1
            )
            changed = sorted_unique(
                np.concatenate([changed, np.flatnonzero(feature_diff)])
            )
        return np.concatenate(
            [changed, np.arange(common, cur.num_vertices, dtype=np.int64)]
        )

    def dissimilarity(self, t: int) -> float:
        """Fraction of snapshot ``t`` vertices changed since ``t-1`` (``Dis_t``)."""
        cur = self.snapshots[t]
        if cur.num_vertices == 0:
            return 0.0
        if t == 0:
            return 1.0
        return len(self.changed_vertices(t)) / cur.num_vertices

    def avg_dissimilarity(self) -> float:
        """Average ``Dis`` over snapshot transitions (excluding the first)."""
        if self.num_snapshots <= 1:
            return 0.0
        return float(
            np.mean([self.dissimilarity(t) for t in range(1, self.num_snapshots)])
        )

    def affected_vertices(self, t: int, layers: int) -> np.ndarray:
        """Vertices whose layer-``layers`` GNN output may change at ``t``.

        A changed vertex invalidates the outputs of every vertex within
        ``layers`` hops *downstream* of it (along out-edges), because an
        L-layer GNN reads the L-hop in-neighbourhood.
        """
        seeds = self.changed_vertices(t)
        return self.snapshots[t].k_hop_affected(seeds, layers)

    def affected_fraction(self, t: int, layers: int) -> float:
        """``len(affected_vertices) / V_t``."""
        cur = self.snapshots[t]
        if cur.num_vertices == 0:
            return 0.0
        return len(self.affected_vertices(t, layers)) / cur.num_vertices

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> DynamicGraphStats:
        """Aggregate statistics consumed by the analytic cost models."""
        num_vertices = [s.num_vertices for s in self.snapshots]
        num_edges = [s.num_edges for s in self.snapshots]
        dis = [self.dissimilarity(t) for t in range(1, self.num_snapshots)]
        return DynamicGraphStats(
            num_snapshots=self.num_snapshots,
            num_vertices=num_vertices,
            num_edges=num_edges,
            feature_dim=self.feature_dim,
            avg_vertices=float(np.mean(num_vertices)),
            avg_edges=float(np.mean(num_edges)),
            avg_dissimilarity=float(np.mean(dis)) if dis else 0.0,
            dissimilarity=dis,
        )

    def subrange(self, start: int, stop: int) -> "DynamicGraph":
        """A new dynamic graph over snapshots ``start..stop-1``."""
        if not (0 <= start < stop <= self.num_snapshots):
            raise ValueError(f"invalid snapshot range [{start}, {stop})")
        return DynamicGraph(
            self.snapshots[start:stop], name=f"{self.name}[{start}:{stop}]"
        )

    def __repr__(self) -> str:
        return f"DynamicGraph({self.name!r}, T={self.num_snapshots})"
