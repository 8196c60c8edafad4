"""Inter-tile communication models (paper §4.2, Eqs. 7-16).

The parallelization of a DGNN over a tile array induces three traffic
classes (Fig. 3):

* **temporal communication** — RNN dependencies between consecutive
  snapshots placed on different tiles (Eq. 8);
* **spatial communication** — GNN aggregation across vertex partitions in
  the same snapshot (Eqs. 10-12), reduced by redundancy elimination to the
  *redundancy-free* amount (Eqs. 9, 13-15);
* **reuse communication** — shipping reusable intermediate results between
  consecutive snapshot groups (Eq. 16).

All quantities are in vertex-feature-row transfers, matching the paper's
"communication amount"; byte conversion happens in the accelerator layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..graphs.dynamic import DynamicGraph

__all__ = ["WorkloadProfile", "ParallelFactors", "CommunicationModel", "CommBreakdown"]


@dataclass(frozen=True)
class WorkloadProfile:
    """Application features consumed by Algorithm 1 (its *Input* block)."""

    gnn_layers: int  # L
    num_snapshots: int  # T
    avg_subgraph_vertices: float  # AvgSV
    avg_subgraph_edges: float  # AvgSE
    dissimilarity: float  # Dis (average, in [0, 1])
    alpha: int = 1  # tiling factor

    def __post_init__(self) -> None:
        if self.gnn_layers < 1:
            raise ValueError("gnn_layers must be >= 1")
        if self.num_snapshots < 1:
            raise ValueError("num_snapshots must be >= 1")
        if not 0.0 <= self.dissimilarity <= 1.0:
            raise ValueError("dissimilarity must be in [0, 1]")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")

    @classmethod
    def from_graph(
        cls, graph: DynamicGraph, gnn_layers: int, alpha: int = 1
    ) -> "WorkloadProfile":
        """Profile a dynamic graph for the analytic models."""
        stats = graph.stats()
        return cls(
            gnn_layers=gnn_layers,
            num_snapshots=stats.num_snapshots,
            avg_subgraph_vertices=stats.avg_vertices / alpha,
            avg_subgraph_edges=stats.avg_edges / alpha,
            dissimilarity=stats.avg_dissimilarity,
            alpha=alpha,
        )

    @property
    def avg_degree(self) -> float:
        """Average subgraph degree ``AvgSE / AvgSV``."""
        if self.avg_subgraph_vertices == 0:
            return 0.0
        return self.avg_subgraph_edges / self.avg_subgraph_vertices


@dataclass(frozen=True)
class ParallelFactors:
    """The parallel factors Algorithm 1 searches for.

    ``snapshots_per_tile`` is ``Ps`` (snapshots each tile group owns) and
    ``vertices_per_tile`` is ``Pv`` (vertices each tile owns);
    ``snapshot_groups``/``vertex_groups`` are the induced logical grid
    dimensions ``ceil(T / Ps)`` and ``ceil(AvgSV / Pv)``.
    """

    snapshots_per_tile: float
    vertices_per_tile: float
    snapshot_groups: int
    vertex_groups: int

    @property
    def tiles_used(self) -> int:
        """Logical tiles occupied by the mapping."""
        return self.snapshot_groups * self.vertex_groups

    @classmethod
    def from_groups(
        cls, num_snapshots: int, avg_vertices: float, snapshot_groups: int,
        vertex_groups: int,
    ) -> "ParallelFactors":
        """Build factors from a grid shape (the search enumerates these)."""
        if snapshot_groups < 1 or vertex_groups < 1:
            raise ValueError("group counts must be >= 1")
        snapshot_groups = min(snapshot_groups, num_snapshots)
        vertex_groups = min(vertex_groups, max(int(avg_vertices), 1))
        return cls(
            snapshots_per_tile=num_snapshots / snapshot_groups,
            vertices_per_tile=avg_vertices / vertex_groups,
            snapshot_groups=snapshot_groups,
            vertex_groups=vertex_groups,
        )


@dataclass(frozen=True)
class CommBreakdown:
    """TotalComm and its three components (Eq. 7), in feature-row transfers."""

    temporal: float
    rf_spatial: float
    reuse: float

    @property
    def total(self) -> float:
        """Eq. 7: ``TotalComm = Tcomm + RFScomm + ReComm``."""
        return self.temporal + self.rf_spatial + self.reuse


class CommunicationModel:
    """Analytic evaluation of Eqs. 8-16 for one workload profile."""

    def __init__(self, profile: WorkloadProfile):
        self.profile = profile

    # -- temporal (Eq. 8) ------------------------------------------------
    def temporal_comm(self, factors: ParallelFactors) -> float:
        """Eq. 8: ``Tcomm = alpha * AvgSV * (ceil(T / Ps) - 1)``.

        Each boundary between consecutive snapshot groups ships every
        sub-snapshot's hidden-state rows once.
        """
        p = self.profile
        boundaries = math.ceil(p.num_snapshots / factors.snapshots_per_tile) - 1
        return p.alpha * p.avg_subgraph_vertices * boundaries

    # -- spatial (Eqs. 10-12) --------------------------------------------
    def total_spatial_comm(self) -> float:
        """Eq. 11: ``TotalScomm = alpha * L * T * AvgSE``.

        Every edge moves one feature row per layer per snapshot."""
        p = self.profile
        return p.alpha * p.gnn_layers * p.num_snapshots * p.avg_subgraph_edges

    def intra_tile_spatial_comm(self, factors: ParallelFactors) -> float:
        """Eq. 12: edges whose endpoints land in the same ``Pv``-vertex tile.

        Splitting ``AvgSV`` vertices into tiles of ``Pv`` gives
        ``floor(AvgSV / Pv)`` full tiles plus one remainder tile; under a
        uniform edge model the same-tile fraction is
        ``(Pv^2 * floor(AvgSV / Pv) + (AvgSV mod Pv)^2) / AvgSV^2``.
        """
        p = self.profile
        avg_sv = p.avg_subgraph_vertices
        if avg_sv <= 0:
            return 0.0
        pv = factors.vertices_per_tile
        full_tiles = math.floor(avg_sv / pv)
        remainder = avg_sv - full_tiles * pv
        same_tile_pairs = pv * pv * full_tiles + remainder * remainder
        return self.total_spatial_comm() * same_tile_pairs / (avg_sv * avg_sv)

    def spatial_comm(self, factors: ParallelFactors) -> float:
        """Eq. 10: ``Scomm = TotalScomm - IntraTileScomm``.

        Clamped at zero: with one vertex group the two terms are equal and
        rounding can leave their difference slightly negative.
        """
        return max(
            self.total_spatial_comm() - self.intra_tile_spatial_comm(factors), 0.0
        )

    # -- redundancy (Eqs. 13-15) -----------------------------------------
    def vertex_spatial_comm(self) -> float:
        """Eq. 15: ``VScomm = sum_{l=1..L} sum_{l'=1..l} (AvgSE / AvgSV)^{l'}``.

        The per-vertex spatial traffic of its full L-layer receptive field.
        """
        p = self.profile
        degree = p.avg_degree
        total = 0.0
        for l in range(1, p.gnn_layers + 1):
            for l_prime in range(1, l + 1):
                total += degree**l_prime
        return total

    def total_redundant_spatial_comm(self) -> float:
        """Eq. 14: ``TotalRScomm = alpha * T * AvgSV * (1 - Dis) * VScomm``.

        Clamped to ``(1 - Dis) * TotalScomm``: reuse can never eliminate
        more spatial traffic than the similar fraction of what exists.  The
        paper's receptive-field estimate overshoots on dense graphs where
        receptive fields overlap heavily (the same deviation its Fig. 10
        attributes to uniform-sparsity assumptions).
        """
        p = self.profile
        estimate = (
            p.alpha
            * p.num_snapshots
            * p.avg_subgraph_vertices
            * (1.0 - p.dissimilarity)
            * self.vertex_spatial_comm()
        )
        return min(estimate, (1.0 - p.dissimilarity) * self.total_spatial_comm())

    def redundant_spatial_comm(self, factors: ParallelFactors) -> float:
        """Eq. 13: ``RScomm = TotalRScomm * Scomm / TotalScomm``."""
        total_spatial = self.total_spatial_comm()
        if total_spatial == 0:
            return 0.0
        return (
            self.total_redundant_spatial_comm()
            * self.spatial_comm(factors)
            / total_spatial
        )

    def rf_spatial_comm(self, factors: ParallelFactors) -> float:
        """Eq. 9: ``RFScomm = Scomm - RScomm``.

        Clamped at zero: with ``Dis = 0`` the share ``RScomm`` equals
        ``Scomm`` up to rounding, which can land above it.
        """
        return max(
            self.spatial_comm(factors) - self.redundant_spatial_comm(factors), 0.0
        )

    # -- reuse (Eq. 16) ----------------------------------------------------
    def reuse_comm(self, factors: ParallelFactors) -> float:
        """Eq. 16: reuse traffic across snapshot-group boundaries.

        ``ReComm = alpha * (ceil(T / Ps) - 1) * AvgSV * (1 - Dis) * VScomm``
        with ``VScomm`` capped at ``L * AvgDeg`` rows per vertex — a vertex
        group boundary cannot usefully ship more reused intermediates than
        the per-layer features its successor would otherwise recompute.
        """
        p = self.profile
        boundaries = math.ceil(p.num_snapshots / factors.snapshots_per_tile) - 1
        per_vertex = min(self.vertex_spatial_comm(), p.gnn_layers * p.avg_degree)
        return (
            p.alpha
            * boundaries
            * p.avg_subgraph_vertices
            * (1.0 - p.dissimilarity)
            * per_vertex
        )

    # -- total (Eq. 7) -----------------------------------------------------
    def breakdown(self, factors: ParallelFactors) -> CommBreakdown:
        """All three components of Eq. 7 for one candidate mapping."""
        return CommBreakdown(
            temporal=self.temporal_comm(factors),
            rf_spatial=self.rf_spatial_comm(factors),
            reuse=self.reuse_comm(factors),
        )

    def total_comm(self, factors: ParallelFactors) -> float:
        """Eq. 7 scalar objective."""
        return self.breakdown(factors).total
