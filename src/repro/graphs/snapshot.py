"""Static graph snapshot representation.

A :class:`GraphSnapshot` is one frame of a discrete-time dynamic graph
(paper Eq. 1).  It stores the directed adjacency structure in CSR form over
*in*-neighbours, because GNN aggregation (paper Eq. 3) pulls features from
the in-neighbourhood of each destination vertex.  Undirected graphs are
represented by storing both edge directions.

The snapshot is immutable after construction; evolution between snapshots is
expressed by building a new snapshot (see :mod:`repro.graphs.generators` and
:mod:`repro.graphs.delta`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["GraphSnapshot", "sorted_unique"]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``values`` as int64, sorted, with duplicates dropped.

    A sort plus a neighbour comparison.  On NumPy 2.4 ``np.unique`` is an
    order of magnitude slower, even on the ~1k ids a window delta holds.
    """
    values = np.sort(np.asarray(values, dtype=np.int64))
    if len(values) > 1:
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    return values


class GraphSnapshot:
    """One snapshot ``G^t`` of a discrete-time dynamic graph.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``V_t``.  Vertex ids are ``0..num_vertices-1``.
    indptr, indices:
        CSR arrays over *in*-neighbours: the in-neighbours of vertex ``v``
        are ``indices[indptr[v]:indptr[v + 1]]``.  ``indices`` must be sorted
        within each row and free of duplicates (validated).
    feature_dim:
        Width of the per-vertex input feature vectors.
    timestamp:
        Index ``t`` of this snapshot within its dynamic graph.
    features:
        Optional dense ``(num_vertices, feature_dim)`` feature matrix.  The
        analytic models never need it; the numeric DGNN models do.
    """

    __slots__ = (
        "num_vertices",
        "indptr",
        "indices",
        "feature_dim",
        "timestamp",
        "_features",
        "_out_degree",
    )

    def __init__(
        self,
        num_vertices: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        feature_dim: int = 1,
        timestamp: int = 0,
        features: Optional[np.ndarray] = None,
    ) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        if feature_dim <= 0:
            raise ValueError(f"feature_dim must be positive, got {feature_dim}")
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.shape != (num_vertices + 1,):
            raise ValueError(
                f"indptr must have shape ({num_vertices + 1},), got {indptr.shape}"
            )
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(indices) and (indices.min() < 0 or indices.max() >= num_vertices):
            raise ValueError("indices contains out-of-range vertex ids")
        self.num_vertices = int(num_vertices)
        self.indptr = indptr
        self.indices = indices
        self.feature_dim = int(feature_dim)
        self.timestamp = int(timestamp)
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.shape != (num_vertices, feature_dim):
                raise ValueError(
                    "features must have shape "
                    f"({num_vertices}, {feature_dim}), got {features.shape}"
                )
        self._features = features
        self._out_degree: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
        feature_dim: int = 1,
        timestamp: int = 0,
        features: Optional[np.ndarray] = None,
        undirected: bool = False,
    ) -> "GraphSnapshot":
        """Build a snapshot from ``(src, dst)`` edge pairs.

        Duplicate edges are collapsed.  With ``undirected=True`` the reverse
        of every edge is inserted as well.
        """
        edge_list = list(edges)
        if undirected:
            edge_list = edge_list + [(d, s) for (s, d) in edge_list]
        if edge_list:
            arr = np.asarray(edge_list, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError("edges must be (src, dst) pairs")
            src, dst = arr[:, 0], arr[:, 1]
        else:
            src = dst = np.empty(0, dtype=np.int64)
        return cls.from_edge_arrays(
            num_vertices, src, dst, feature_dim, timestamp, features
        )

    @classmethod
    def from_edge_arrays(
        cls,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        feature_dim: int = 1,
        timestamp: int = 0,
        features: Optional[np.ndarray] = None,
    ) -> "GraphSnapshot":
        """Build a snapshot from parallel ``src``/``dst`` arrays (deduplicated)."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same shape")
        if len(src):
            if src.min() < 0 or src.max() >= num_vertices:
                raise ValueError("src contains out-of-range vertex ids")
            if dst.min() < 0 or dst.max() >= num_vertices:
                raise ValueError("dst contains out-of-range vertex ids")
            # Deduplicate on the (dst, src) key so rows come out sorted.
            key = dst * num_vertices + src
            key = sorted_unique(key)
            dst = key // num_vertices
            src = key % num_vertices
        counts = np.bincount(dst, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(num_vertices, indptr, src, feature_dim, timestamp, features)

    @classmethod
    def empty(
        cls, num_vertices: int, feature_dim: int = 1, timestamp: int = 0
    ) -> "GraphSnapshot":
        """A snapshot with no edges."""
        return cls(
            num_vertices,
            np.zeros(num_vertices + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            feature_dim,
            timestamp,
        )

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges (CSR nnz)."""
        return int(len(self.indices))

    @property
    def features(self) -> Optional[np.ndarray]:
        """The dense feature matrix, or ``None`` for structure-only snapshots."""
        return self._features

    def restamped(self, timestamp: int) -> "GraphSnapshot":
        """This snapshot at ``timestamp``, sharing its arrays and cached
        out-degree.

        The snapshot was validated when it was built, so the copy is not
        validated again.
        """
        if timestamp == self.timestamp:
            return self
        copy = GraphSnapshot.__new__(GraphSnapshot)
        for slot in self.__slots__:
            setattr(copy, slot, getattr(self, slot))
        copy.timestamp = int(timestamp)
        return copy

    def with_features(self, features: np.ndarray) -> "GraphSnapshot":
        """Return a copy of this snapshot carrying ``features``."""
        return GraphSnapshot(
            self.num_vertices,
            self.indptr,
            self.indices,
            self.feature_dim,
            self.timestamp,
            features,
        )

    def in_degree(self, vertex: Optional[int] = None) -> np.ndarray:
        """In-degree of one vertex or of all vertices."""
        degrees = np.diff(self.indptr)
        if vertex is None:
            return degrees
        return degrees[vertex]

    def out_degree(self, vertex: Optional[int] = None) -> np.ndarray:
        """Out-degree of one vertex or of all vertices (computed lazily)."""
        if self._out_degree is None:
            self._out_degree = np.bincount(
                self.indices, minlength=self.num_vertices
            ).astype(np.int64)
        if vertex is None:
            return self._out_degree
        return self._out_degree[vertex]

    def in_neighbors(self, vertex: int) -> np.ndarray:
        """Sorted array of in-neighbours of ``vertex``."""
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether the directed edge ``src -> dst`` exists."""
        row = self.in_neighbors(dst)
        pos = np.searchsorted(row, src)
        return bool(pos < len(row) and row[pos] == src)

    def edge_set(self) -> set:
        """All directed edges as a set of ``(src, dst)`` tuples."""
        dst = np.repeat(np.arange(self.num_vertices), np.diff(self.indptr))
        return set(zip(self.indices.tolist(), dst.tolist()))

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """All directed edges as parallel ``(src, dst)`` arrays."""
        dst = np.repeat(np.arange(self.num_vertices), np.diff(self.indptr))
        return self.indices.copy(), dst

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(src, dst)`` pairs in CSR order."""
        for dst in range(self.num_vertices):
            for src in self.in_neighbors(dst):
                yield int(src), dst

    # ------------------------------------------------------------------
    # Neighbourhood expansion
    # ------------------------------------------------------------------
    def expand_frontier(self, vertices: np.ndarray) -> np.ndarray:
        """Vertices whose in-neighbourhood intersects ``vertices``.

        In other words: the set of destinations reachable in one hop along
        *out*-edges from ``vertices``.  Used to propagate "changed" sets
        through GNN layers (a vertex's layer-``l`` output depends on its
        ``l``-hop in-neighbourhood).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if len(vertices) == 0:
            return np.empty(0, dtype=np.int64)
        member = np.zeros(self.num_vertices, dtype=bool)
        member[vertices] = True
        hit = member[self.indices]
        dst = np.repeat(np.arange(self.num_vertices), np.diff(self.indptr))
        return sorted_unique(dst[hit])

    def k_hop_walk(self, seeds: np.ndarray, hops: int) -> List[np.ndarray]:
        """The affected set after each of ``0..hops`` out-steps from ``seeds``.

        Entry ``h`` is the union of ``seeds`` with every vertex within
        ``h`` out-steps, so an L-layer GNN reads all L layers' invalidated
        sets off one walk.  A hop that adds nothing is a fixed point, and
        the remaining entries repeat it.
        """
        affected = sorted_unique(seeds)
        walk = [affected]
        frontier = affected
        for _ in range(hops):
            frontier = self.expand_frontier(frontier)
            new = frontier[~np.isin(frontier, affected, assume_unique=True)]
            if len(new) == 0:
                break
            # disjoint and each duplicate-free: the sorted union is unique
            affected = np.sort(np.concatenate([affected, new]))
            walk.append(affected)
        return walk + [affected] * (hops + 1 - len(walk))

    def k_hop_affected(self, seeds: np.ndarray, hops: int) -> np.ndarray:
        """Union of ``seeds`` with every vertex within ``hops`` out-steps."""
        return self.k_hop_walk(seeds, hops)[-1]

    # ------------------------------------------------------------------
    # Linear-algebra helpers for the numeric models
    # ------------------------------------------------------------------
    def normalized_adjacency(self, add_self_loops: bool = True) -> np.ndarray:
        """Dense symmetric-normalized adjacency ``D^-1/2 (A + I) D^-1/2``.

        Only intended for the small graphs used in numeric tests and
        examples; the analytic models never materialize the matrix.
        """
        a = np.zeros((self.num_vertices, self.num_vertices), dtype=np.float64)
        src, dst = self.edge_arrays()
        a[dst, src] = 1.0
        if add_self_loops:
            np.fill_diagonal(a, 1.0)
        degree = a.sum(axis=1)
        inv_sqrt = np.where(degree > 0, 1.0 / np.sqrt(np.maximum(degree, 1e-12)), 0.0)
        return (a * inv_sqrt[:, None]) * inv_sqrt[None, :]

    def aggregate(self, x: np.ndarray, add_self_loops: bool = True) -> np.ndarray:
        """Sparse aggregation ``\\hat{A} x`` without materializing ``\\hat{A}``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.num_vertices:
            raise ValueError("feature row count must equal num_vertices")
        degree = self.in_degree().astype(np.float64)
        if add_self_loops:
            degree = degree + 1.0
        inv_sqrt = np.where(degree > 0, 1.0 / np.sqrt(np.maximum(degree, 1e-12)), 0.0)
        scaled = x * inv_sqrt[:, None]
        out = np.zeros_like(scaled)
        dst = np.repeat(np.arange(self.num_vertices), np.diff(self.indptr))
        np.add.at(out, dst, scaled[self.indices])
        if add_self_loops:
            out += scaled
        return out * inv_sqrt[:, None]

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphSnapshot):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self.feature_dim == other.feature_dim
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:  # snapshots are used as dict keys in caches
        return hash((self.num_vertices, self.num_edges, self.timestamp))

    def __repr__(self) -> str:
        return (
            f"GraphSnapshot(t={self.timestamp}, V={self.num_vertices}, "
            f"E={self.num_edges}, F={self.feature_dim})"
        )
