"""Vertex- and snapshot-partitioning utilities.

The coarse-grained strategies the paper contrasts against (§1, §3.1):

* *snapshot partitioning* (temporal parallelism; ReaDy/DGNN-Booster/RACE
  style) — each tile owns whole snapshots;
* *vertex partitioning* (spatial parallelism; MEGA/AliGraph style) — each
  tile owns a contiguous vertex range of every snapshot.

These serve both as baseline placements and as the degenerate points of the
paper's `Ps`/`Pv` search space.  The balance-aware placement of Algorithm 2
lives in :mod:`repro.core.balance`; here we only provide the mechanical
partitioners plus cut-size accounting used by the communication models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .snapshot import GraphSnapshot

__all__ = [
    "VertexPartition",
    "contiguous_vertex_partition",
    "round_robin_partition",
    "bfs_partition",
    "snapshot_assignment",
    "edge_cut",
    "partition_loads",
]


@dataclass(frozen=True)
class VertexPartition:
    """An assignment of vertex ids to ``num_parts`` parts.

    ``assignment[v]`` is the part owning vertex ``v``.
    """

    num_parts: int
    assignment: np.ndarray

    def __post_init__(self) -> None:
        if self.num_parts <= 0:
            raise ValueError("num_parts must be positive")
        if len(self.assignment) and (
            self.assignment.min() < 0 or self.assignment.max() >= self.num_parts
        ):
            raise ValueError("assignment references parts out of range")

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by the partition."""
        return len(self.assignment)

    def members(self, part: int) -> np.ndarray:
        """Vertex ids owned by ``part``."""
        return np.flatnonzero(self.assignment == part)

    def sizes(self) -> np.ndarray:
        """Vertex count per part."""
        return np.bincount(self.assignment, minlength=self.num_parts)


def contiguous_vertex_partition(num_vertices: int, num_parts: int) -> VertexPartition:
    """Split ``0..V-1`` into ``num_parts`` contiguous, near-equal ranges.

    This is the "natural order" split of BNS-GCN/Graph Ladling the paper
    criticizes (§1): vertex counts are even but workloads are not.
    """
    if num_parts <= 0:
        raise ValueError("num_parts must be positive")
    if num_parts >= num_vertices:
        # One vertex per leading part; trailing parts are (validly) empty.
        # The linspace bounds below would scatter the occupied parts over
        # the range instead, which breaks the "ranges in part order"
        # contract consumers rely on for deterministic tie-breaking.
        assignment = np.arange(num_vertices, dtype=np.int64)
        return VertexPartition(num_parts, assignment)
    bounds = np.linspace(0, num_vertices, num_parts + 1).astype(np.int64)
    assignment = np.zeros(num_vertices, dtype=np.int64)
    for part in range(num_parts):
        assignment[bounds[part] : bounds[part + 1]] = part
    return VertexPartition(num_parts, assignment)


def round_robin_partition(
    order: np.ndarray, num_parts: int, num_vertices: int
) -> VertexPartition:
    """Deal vertices to parts in serpentine round-robin following ``order``.

    With ``order`` sorted by descending workload this is the placement step
    of the paper's Algorithm 2 (line 10).  The deal direction alternates
    each round (0..k-1 then k-1..0) — the standard balanced round-robin
    variant; a one-directional deal hands every round's heaviest item to
    part 0, which systematically overloads it on skewed workloads.
    """
    order = np.asarray(order, dtype=np.int64)
    if len(np.unique(order)) != num_vertices or len(order) != num_vertices:
        raise ValueError("order must be a permutation of 0..num_vertices-1")
    ranks = np.arange(num_vertices, dtype=np.int64)
    rounds, position = np.divmod(ranks, num_parts)
    parts = np.where(rounds % 2 == 0, position, num_parts - 1 - position)
    assignment = np.empty(num_vertices, dtype=np.int64)
    assignment[order] = parts
    return VertexPartition(num_parts, assignment)


def bfs_partition(snapshot: GraphSnapshot, num_parts: int) -> VertexPartition:
    """Locality-aware partition: grow parts by BFS over undirected adjacency.

    A METIS-style lightweight heuristic: parts are grown breadth-first to a
    size cap, so neighbours tend to land together and the edge cut drops
    relative to the natural-order split.  Trades the workload balance of
    Algorithm 2 for communication locality — useful as a comparison point
    for the spatial-communication models.
    """
    if num_parts <= 0:
        raise ValueError("num_parts must be positive")
    n = snapshot.num_vertices
    cap = -(-n // num_parts)
    # Undirected adjacency for growth.
    src, dst = snapshot.edge_arrays()
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    order = np.argsort(all_dst, kind="stable")
    sorted_src = all_src[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(all_dst, minlength=n), out=indptr[1:])

    assignment = np.full(n, -1, dtype=np.int64)
    part = 0
    filled = 0
    from collections import deque

    queue: deque = deque()
    for seed in range(n):
        if assignment[seed] != -1:
            continue
        queue.append(seed)
        while queue:
            v = queue.popleft()
            if assignment[v] != -1:
                continue
            if filled >= cap and part < num_parts - 1:
                part += 1
                filled = 0
            assignment[v] = part
            filled += 1
            for u in sorted_src[indptr[v] : indptr[v + 1]]:
                if assignment[u] == -1:
                    queue.append(int(u))
    return VertexPartition(num_parts, assignment)


def snapshot_assignment(num_snapshots: int, num_groups: int) -> List[np.ndarray]:
    """Assign snapshot indices to ``num_groups`` consecutive groups.

    Consecutive snapshots stay together so temporal (RNN) dependencies cross
    group boundaries only ``num_groups - 1`` times — the assumption behind
    the paper's temporal communication model (Eq. 8).
    """
    if num_groups <= 0:
        raise ValueError("num_groups must be positive")
    bounds = np.linspace(0, num_snapshots, num_groups + 1).astype(np.int64)
    return [
        np.arange(bounds[g], bounds[g + 1], dtype=np.int64)
        for g in range(num_groups)
    ]


def edge_cut(snapshot: GraphSnapshot, partition: VertexPartition) -> int:
    """Number of edges whose endpoints live in different parts.

    Each cut edge forces one inter-tile spatial-communication transfer per
    GNN layer (§4.2.2).
    """
    if partition.num_vertices < snapshot.num_vertices:
        raise ValueError("partition does not cover all snapshot vertices")
    src, dst = snapshot.edge_arrays()
    return int(np.sum(partition.assignment[src] != partition.assignment[dst]))


def partition_loads(loads: np.ndarray, partition: VertexPartition) -> np.ndarray:
    """Sum a per-vertex ``loads`` vector within each part."""
    loads = np.asarray(loads, dtype=np.float64)
    if len(loads) != partition.num_vertices:
        raise ValueError("loads length must equal partition.num_vertices")
    return np.bincount(
        partition.assignment, weights=loads, minlength=partition.num_parts
    )
