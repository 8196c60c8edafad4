"""Continuous-time dynamic graphs and their discretization (paper §2.1).

The paper distinguishes two dynamic-graph representations: continuous-time
dynamic graphs — "a pair <G, O>, where G represents the initial state of a
static graph, and O is a set of updates" — and discrete-time dynamic
graphs, "a sequence of discrete snapshots sampled at regular intervals"
(Eq. 1).  DiTile-DGNN operates on the discrete-time form; this module
provides the continuous-time form plus the regular-interval sampling that
converts one into the other, so event-stream datasets (the natural format
of real dynamic-graph traces) feed the rest of the library.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .dynamic import DynamicGraph
from .snapshot import GraphSnapshot

__all__ = [
    "EdgeEvent",
    "EventColumns",
    "ContinuousDynamicGraph",
    "window_index",
    "window_indices",
]


def window_index(time: float, origin: float, window: float) -> int:
    """The window an event at ``time`` belongs to.

    Windows partition the stream into half-open intervals anchored at
    ``origin`` (the first event time): window ``k`` covers
    ``(origin + k*window, origin + (k+1)*window]``, except that events at
    exactly ``origin`` belong to window 0.  The closed upper bound matches
    :meth:`ContinuousDynamicGraph.edges_at`, whose prefix is inclusive —
    so an event landing exactly on a boundary is visible in the snapshot
    sampled at that boundary.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    return max(0, math.ceil((time - origin) / window) - 1)


def window_indices(times: np.ndarray, origin: float, window: float) -> np.ndarray:
    """:func:`window_index` of every entry of ``times`` (finite), as int64.

    The same IEEE operations in the same order, so each entry equals the
    scalar rule's answer exactly, boundary ulps included.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    index = np.ceil((np.asarray(times, dtype=np.float64) - origin) / window) - 1
    return np.maximum(index, 0).astype(np.int64)


_ADD = "add"
_REMOVE = "remove"


@dataclass(frozen=True, order=True)
class EdgeEvent:
    """One timestamped update in the stream ``O``."""

    time: float
    src: int
    dst: int
    kind: str = _ADD

    def __post_init__(self) -> None:
        if self.kind not in (_ADD, _REMOVE):
            raise ValueError(f"kind must be 'add' or 'remove', got {self.kind!r}")
        if self.src < 0 or self.dst < 0:
            raise ValueError("vertex ids must be non-negative")


@dataclass(frozen=True, eq=False)
class EventColumns:
    """A batch of :class:`EdgeEvent`\\ s as parallel NumPy columns."""

    times: np.ndarray  # float64
    src: np.ndarray  # int64
    dst: np.ndarray  # int64
    remove: np.ndarray  # bool: ``kind == "remove"``

    @classmethod
    def from_events(cls, events: Sequence[EdgeEvent]) -> "EventColumns":
        """The columns of ``events``, in order (one pass per column)."""
        count = len(events)
        return cls(
            times=np.fromiter((e.time for e in events), np.float64, count),
            src=np.fromiter((e.src for e in events), np.int64, count),
            dst=np.fromiter((e.dst for e in events), np.int64, count),
            remove=np.fromiter((e.kind != _ADD for e in events), bool, count),
        )

    def __len__(self) -> int:
        return len(self.times)

    def take(self, rows: np.ndarray) -> "EventColumns":
        """The rows selected by ``rows`` (a mask or an index array)."""
        return EventColumns(
            self.times[rows], self.src[rows], self.dst[rows], self.remove[rows]
        )


class ContinuousDynamicGraph:
    """The pair ``<G, O>``: an initial snapshot plus a timestamped update set."""

    def __init__(
        self,
        initial: GraphSnapshot,
        events: Iterable[EdgeEvent],
        name: str = "continuous-graph",
    ):
        self.initial = initial
        self.events: List[EdgeEvent] = sorted(events)
        self.name = name
        max_id = max(
            [initial.num_vertices - 1]
            + [max(e.src, e.dst) for e in self.events],
            default=-1,
        )
        self.num_vertices = max(initial.num_vertices, max_id + 1)
        self._times = [e.time for e in self.events]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_event_arrays(
        cls,
        num_vertices: int,
        times: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        kinds: Optional[Sequence[str]] = None,
        name: str = "continuous-graph",
    ) -> "ContinuousDynamicGraph":
        """Build from parallel arrays (empty initial graph)."""
        times = np.asarray(times, dtype=np.float64)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if not (len(times) == len(src) == len(dst)):
            raise ValueError("times, src, dst must have equal length")
        if kinds is None:
            kinds = [_ADD] * len(times)
        events = [
            EdgeEvent(float(t), int(s), int(d), k)
            for t, s, d, k in zip(times, src, dst, kinds)
        ]
        return cls(GraphSnapshot.empty(num_vertices), events, name=name)

    @classmethod
    def from_snapshots(
        cls, graph: DynamicGraph, name: Optional[str] = None
    ) -> "ContinuousDynamicGraph":
        """Replay a discrete-time dynamic graph as an event stream.

        The first snapshot becomes the initial graph ``G``; every later
        transition ``t-1 -> t`` contributes its exact edge delta as add /
        remove events stamped at time ``t``.  Discretizing the result with
        a unit window recovers snapshots ``1..T-1``, which is how offline
        Table 1 datasets are fed to the streaming service.
        """
        from .delta import snapshot_delta  # local import avoids a cycle at module load

        events: List[EdgeEvent] = []
        for t in range(1, graph.num_snapshots):
            delta = snapshot_delta(graph[t - 1], graph[t])
            time = float(t)
            events.extend(
                EdgeEvent(time, int(s), int(d), _ADD)
                for s, d in zip(delta.added_src, delta.added_dst)
            )
            events.extend(
                EdgeEvent(time, int(s), int(d), _REMOVE)
                for s, d in zip(delta.removed_src, delta.removed_dst)
            )
        return cls(graph[0], events, name=name or f"{graph.name}[events]")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        """Updates in ``O``."""
        return len(self.events)

    @property
    def time_span(self) -> Tuple[float, float]:
        """(first, last) event time; (0, 0) for an empty stream."""
        if not self.events:
            return (0.0, 0.0)
        return (self.events[0].time, self.events[-1].time)

    def edges_at(self, time: float) -> set:
        """The edge set after applying every event with ``e.time <= time``."""
        edges = set(self.initial.edge_set())
        stop = bisect.bisect_right(self._times, time)
        for event in self.events[:stop]:
            pair = (event.src, event.dst)
            if event.kind == _ADD:
                edges.add(pair)
            else:
                edges.discard(pair)
        return edges

    def snapshot_at(
        self, time: float, feature_dim: Optional[int] = None
    ) -> GraphSnapshot:
        """The graph state at ``time`` as a :class:`GraphSnapshot`."""
        edges = self.edges_at(time)
        return GraphSnapshot.from_edges(
            self.num_vertices,
            edges,
            feature_dim=feature_dim or self.initial.feature_dim,
        )

    # ------------------------------------------------------------------
    # Discretization (Eq. 1)
    # ------------------------------------------------------------------
    def discretize(
        self,
        num_snapshots: int,
        feature_dim: Optional[int] = None,
    ) -> DynamicGraph:
        """Sample ``num_snapshots`` snapshots at regular intervals.

        Snapshot ``i`` captures the graph state at
        ``t_first + (i + 1) / T * (t_last - t_first)``, so the last
        snapshot includes every event.  With an empty stream, every
        snapshot equals the initial graph.
        """
        if num_snapshots < 1:
            raise ValueError("num_snapshots must be >= 1")
        first, last = self.time_span
        span = last - first
        snapshots = []
        for i in range(num_snapshots):
            if span > 0:
                time = first + (i + 1) / num_snapshots * span
            else:
                time = last
            snapshots.append(self.snapshot_at(time, feature_dim))
        return DynamicGraph(snapshots, name=f"{self.name}[T={num_snapshots}]")

    def num_windows(self, window: float, origin: Optional[float] = None) -> int:
        """Windows of width ``window`` needed to cover the stream (>= 1)."""
        first, last = self.time_span
        anchor = first if origin is None else origin
        if not self.events:
            return 1
        return window_index(last, anchor, window) + 1

    def discretize_windows(
        self,
        window: float,
        feature_dim: Optional[int] = None,
        origin: Optional[float] = None,
    ) -> DynamicGraph:
        """Sample one snapshot per fixed-width time window.

        Unlike :meth:`discretize` (which divides the *observed span* into a
        requested snapshot count), this anchors half-open windows of width
        ``window`` at ``origin`` (default: the first event time) and samples
        the graph state at each window's closing boundary — the same rule
        (:func:`window_index`) the streaming service's ingest stage applies
        online, so the two paths discretize identically.  Windows containing
        no events still produce a snapshot (equal to their predecessor).
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        first, _ = self.time_span
        anchor = first if origin is None else origin
        count = self.num_windows(window, origin=anchor)
        snapshots = [
            self.snapshot_at(anchor + (k + 1) * window, feature_dim)
            for k in range(count)
        ]
        return DynamicGraph(snapshots, name=f"{self.name}[W={window:g}]")

    def __repr__(self) -> str:
        return (
            f"ContinuousDynamicGraph({self.name!r}, V={self.num_vertices}, "
            f"|O|={self.num_events})"
        )
