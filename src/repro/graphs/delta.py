"""Snapshot deltas and the deletion-to-addition transformation.

The paper (§7.1) follows CommonGraph/MEGA in observing that *deleting* edges
from an incrementally-maintained GNN state is far more expensive than adding
edges, and transforms deletion operations into additions "by leveraging the
mutually inclusive graph structure across snapshots": instead of evolving
``G^t -> G^{t+1}`` directly, both are reached by *adding* edges to their
common core ``G^t ∩ G^{t+1}``.

This module computes exact edge deltas between snapshots and builds the
addition-only execution schedule used by the Mega-Alg and DiTile-Alg
operation-counting models (:mod:`repro.baselines.algorithms`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .dynamic import DynamicGraph
from .snapshot import GraphSnapshot

__all__ = [
    "SnapshotDelta",
    "snapshot_delta",
    "snapshot_edge_keys",
    "sorted_isin",
    "delta_counts",
    "apply_delta",
    "common_core",
    "AdditionOnlyStep",
    "addition_only_schedule",
]


def _edge_keys(snapshot: GraphSnapshot, id_space: int) -> np.ndarray:
    """Edges of ``snapshot`` encoded as sorted int64 keys ``dst*N + src``."""
    rows = np.arange(snapshot.num_vertices, dtype=np.int64) * id_space
    # CSR order is already sorted by (dst, src)
    return np.repeat(rows, np.diff(snapshot.indptr)) + snapshot.indices


def snapshot_edge_keys(snapshot: GraphSnapshot, id_space: int) -> np.ndarray:
    """Public :func:`_edge_keys`: sorted int64 edge keys under ``id_space``.

    Any ``id_space > max vertex id`` gives an injective, order-preserving
    encoding, so callers diffing a whole snapshot sequence can compute one
    key array per snapshot against a shared id space instead of one per
    transition (see :func:`repro.baselines.algorithms.measure_quantities`).
    """
    if id_space < max(snapshot.num_vertices, 1):
        raise ValueError(
            f"id_space {id_space} cannot encode {snapshot.num_vertices} vertices"
        )
    return _edge_keys(snapshot, id_space)


def sorted_isin(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Membership of each element of ``values`` in sorted ``table``.

    ``table`` is sorted and duplicate-free (CSR edge keys), so a
    binary-search probe replaces ``np.setdiff1d``'s concatenate-and-sort
    pass — the measured hot path of snapshot-delta extraction.
    """
    if len(table) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(table, values)
    pos[pos == len(table)] = len(table) - 1
    return table[pos] == values


def _locate(table: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Insertion points of ``values`` in sorted ``table``, and which are present."""
    return np.searchsorted(table, values), sorted_isin(values, table)


def _unique_keys(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted with duplicates dropped.

    A sort plus a neighbour comparison.  On NumPy 2.4 ``np.unique`` is an
    order of magnitude slower, even on the ~1k keys a window delta holds.
    """
    keys = np.sort(np.asarray(keys, dtype=np.int64))
    if len(keys) > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def delta_counts(prev_keys: np.ndarray, cur_keys: np.ndarray) -> Tuple[int, int]:
    """``(added, removed)`` edge counts between two sorted key arrays.

    The count-only fast path for callers that need delta *sizes* but not
    the edge endpoints: one membership probe yields the intersection
    cardinality, from which both counts follow.
    """
    shared = int(np.count_nonzero(sorted_isin(cur_keys, prev_keys)))
    return len(cur_keys) - shared, len(prev_keys) - shared


def _keys_to_arrays(keys: np.ndarray, id_space: int) -> Tuple[np.ndarray, np.ndarray]:
    return keys % id_space, keys // id_space


@dataclass(frozen=True)
class SnapshotDelta:
    """Exact edge-level difference between two snapshots.

    ``added``/``removed`` hold ``(src, dst)`` arrays.  ``touched_vertices``
    is the set of destination vertices incident to any change — the seeds of
    the GNN invalidation frontier.
    """

    added_src: np.ndarray
    added_dst: np.ndarray
    removed_src: np.ndarray
    removed_dst: np.ndarray

    @property
    def num_added(self) -> int:
        """Number of inserted edges."""
        return len(self.added_src)

    @property
    def num_removed(self) -> int:
        """Number of deleted edges."""
        return len(self.removed_src)

    @property
    def num_changes(self) -> int:
        """Total number of edge insertions plus deletions."""
        return self.num_added + self.num_removed

    def touched_vertices(self) -> np.ndarray:
        """Destination vertices whose in-neighbour row changed."""
        return np.unique(np.concatenate([self.added_dst, self.removed_dst]))


def snapshot_delta(prev: GraphSnapshot, cur: GraphSnapshot) -> SnapshotDelta:
    """Exact ``prev -> cur`` edge delta.

    Vertices present in only one snapshot contribute all their edges to the
    corresponding side of the delta.
    """
    id_space = max(prev.num_vertices, cur.num_vertices, 1)
    prev_keys = _edge_keys(prev, id_space)
    cur_keys = _edge_keys(cur, id_space)
    # Both key arrays are sorted and unique, so a searchsorted probe beats
    # np.setdiff1d (which concatenates, re-sorts, and hashes); the output
    # keeps the same ascending (dst, src) order setdiff1d produced.
    added = cur_keys[~sorted_isin(cur_keys, prev_keys)]
    removed = prev_keys[~sorted_isin(prev_keys, cur_keys)]
    a_src, a_dst = _keys_to_arrays(added, id_space)
    r_src, r_dst = _keys_to_arrays(removed, id_space)
    return SnapshotDelta(a_src, a_dst, r_src, r_dst)


def apply_delta(
    prev: GraphSnapshot,
    delta: SnapshotDelta,
    timestamp: int = 0,
) -> GraphSnapshot:
    """Materialize the successor snapshot ``prev + delta`` incrementally.

    The inverse of :func:`snapshot_delta`, and the streaming-ingest fast
    path (:mod:`repro.serving`): the delta is spliced into ``prev``'s
    already-sorted ``dst*V + src`` edge keys.  Only the delta is sorted
    and deduplicated.  Binary searches of O(|delta| log |E|) locate it
    among the previous keys, ``np.delete``/``np.insert`` splice the
    removals out and the additions in with linear copies, and ``indptr``
    is read straight off the spliced keys.  No sort, unique or set
    operation runs over the full edge set.

    The delta may arrive in any order and may repeat edges.  Removals of
    absent edges and additions of present edges are no-ops, matching
    :meth:`ContinuousDynamicGraph.edges_at` set semantics; an edge listed
    as both added and removed ends present.  Vertex ids past ``prev``'s
    vertex space grow it.
    """
    max_id = max(
        [prev.num_vertices - 1]
        + [int(a.max()) for a in (
            delta.added_src, delta.added_dst, delta.removed_src, delta.removed_dst
        ) if len(a)],
    )
    num_vertices = max_id + 1
    id_space = max(num_vertices, 1)
    keys = _edge_keys(prev, id_space)
    added = _unique_keys(delta.added_dst * id_space + delta.added_src)
    removed = _unique_keys(delta.removed_dst * id_space + delta.removed_src)
    removed = removed[~sorted_isin(removed, added)]  # added wins: ends present
    drop, present = _locate(keys, removed)
    drop = drop[present]
    at, present = _locate(keys, added)
    at, added = at[~present], added[~present]
    # ``at`` indexes ``keys``; shift it past the dropped keys before it.
    keys = np.insert(np.delete(keys, drop), at - np.searchsorted(drop, at), added)
    indptr = np.searchsorted(keys, np.arange(num_vertices + 1) * id_space)
    return GraphSnapshot(
        num_vertices,
        indptr,
        keys % id_space,
        feature_dim=prev.feature_dim,
        timestamp=timestamp,
    )


def common_core(prev: GraphSnapshot, cur: GraphSnapshot) -> GraphSnapshot:
    """The intersection snapshot ``prev ∩ cur`` (shared edges only).

    Both ``prev`` and ``cur`` are reachable from the core by *additions*
    alone — the key fact behind the deletion-to-addition transform.
    """
    id_space = max(prev.num_vertices, cur.num_vertices, 1)
    shared = np.intersect1d(
        _edge_keys(prev, id_space), _edge_keys(cur, id_space), assume_unique=True
    )
    src, dst = _keys_to_arrays(shared, id_space)
    num_vertices = max(prev.num_vertices, cur.num_vertices)
    return GraphSnapshot.from_edge_arrays(
        num_vertices, src, dst, feature_dim=cur.feature_dim, timestamp=cur.timestamp
    )


@dataclass(frozen=True)
class AdditionOnlyStep:
    """One transition of the addition-only schedule.

    To move the incremental state from snapshot ``t`` to ``t+1`` without
    deletions, the engine rolls back to the common core (whose state it
    retains because the core is a subgraph of snapshot ``t``), then applies
    ``edges_to_add`` insertions.  ``direct_deletions``/``direct_additions``
    record what a naive delta would have done, for cost comparison.
    """

    timestamp: int
    core_edges: int
    edges_to_add: int
    direct_additions: int
    direct_deletions: int

    @property
    def avoided_deletions(self) -> int:
        """Deletions the transform converted into (cheaper) additions."""
        return self.direct_deletions


def addition_only_schedule(graph: DynamicGraph) -> List[AdditionOnlyStep]:
    """The MEGA-style addition-only schedule over all snapshot transitions.

    For each transition ``t-1 -> t``, the engine rebuilds snapshot ``t``
    from the common core by pure additions.  The additions applied are the
    edges of ``t`` absent from the core — i.e. exactly the direct additions
    (edges new in ``t``); the deletions disappear because the core never
    contained them.
    """
    steps: List[AdditionOnlyStep] = []
    for t in range(1, graph.num_snapshots):
        prev, cur = graph[t - 1], graph[t]
        delta = snapshot_delta(prev, cur)
        core_edges = prev.num_edges - delta.num_removed
        steps.append(
            AdditionOnlyStep(
                timestamp=t,
                core_edges=core_edges,
                edges_to_add=delta.num_added,
                direct_additions=delta.num_added,
                direct_deletions=delta.num_removed,
            )
        )
    return steps
