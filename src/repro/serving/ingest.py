"""Ingest stage: event streams -> incrementally materialized window snapshots.

Events are assigned to fixed-width time windows by the same rule the
offline reference uses (:func:`~repro.graphs.continuous.window_index`),
then each closing window's snapshot is produced by *applying the window's
net edge delta* to the previous snapshot rather than rebuilding the CSR
from the full accumulated edge set (PiPAD's snapshot-preparation overlap
only pays off if preparation itself is cheap).  The net delta is computed
from NumPy columns of the window's events, and
:func:`~repro.graphs.delta.apply_delta` splices it into the previous
snapshot's sorted edge keys: searches of O(|delta| log |E|), linear
copies to splice, and no sort or unique over the full edge set.  The
snapshot's CSR is the only copy of the edge set ingest keeps.

Streaming realities handled here:

* **Out-of-order events** inside the still-open window are buffered and
  sorted at close (the same ``(time, src, dst, kind)`` order
  :class:`~repro.graphs.continuous.ContinuousDynamicGraph` applies).
* **Late events** — older than the already-closed window — are dropped
  and counted (or rejected, with ``strict_time_order=True``).
* **Empty windows** (gaps in the stream) still emit a snapshot equal to
  their predecessor, keeping the window clock aligned with the offline
  discretization.
* **Add/remove churn** within one window nets out: only an edge's final
  state relative to the current snapshot enters the delta.
* **Malformed events** — non-finite or negative timestamps, vertex ids
  outside the declared space — are rejected with a precise error, or
  (``quarantine=True``) diverted into a dead-letter queue of
  :class:`RejectedEvent`\\ s so one poison event cannot take down the
  stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..graphs.continuous import ContinuousDynamicGraph, EdgeEvent, window_index
from ..graphs.delta import (
    SnapshotDelta,
    apply_delta,
    snapshot_edge_keys,
    sorted_isin,
)
from ..graphs.snapshot import GraphSnapshot
from .stats import wall_clock

__all__ = [
    "Window",
    "RejectedEvent",
    "event_fault",
    "IncrementalWindowBuilder",
    "ShardedWindowBuilder",
    "WindowedIngestor",
]

_ADD = "add"


@dataclass(frozen=True)
class RejectedEvent:
    """One quarantined event in the ingest dead-letter queue."""

    event: EdgeEvent
    reason: str
    #: stream position at which the event arrived (0-based)
    position: int


def event_fault(event: EdgeEvent, num_vertices: int) -> Optional[str]:
    """Why ``event`` is malformed, or ``None`` if it is well-formed.

    The single validation rule shared by the strict (raise) and
    quarantine (dead-letter) paths, so both reject exactly the same
    events for exactly the same reasons.
    """
    if not math.isfinite(event.time):
        return f"non-finite timestamp {event.time!r}"
    if event.time < 0:
        return f"negative timestamp {event.time!r}"
    if not (0 <= event.src < num_vertices and 0 <= event.dst < num_vertices):
        return (
            f"vertex id outside the fixed vertex space [0, {num_vertices})"
        )
    return None


@dataclass
class Window:
    """One closed window: its materialized snapshot plus bookkeeping."""

    index: int
    snapshot: GraphSnapshot
    delta: SnapshotDelta
    num_events: int
    close_time: float  # stream-time upper boundary of the window
    closed_at: float = field(default=0.0, repr=False)  # wall clock, stats only


class IncrementalWindowBuilder:
    """Holds the current snapshot and materializes successive snapshots.

    The vertex id space is fixed up front (as the offline discretization
    fixes it from the whole stream); events referencing vertices outside
    it are rejected so online and offline snapshots stay comparable.
    """

    def __init__(
        self,
        num_vertices: int,
        feature_dim: int = 1,
        initial: Optional[GraphSnapshot] = None,
    ):
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        if initial is not None and initial.num_vertices > num_vertices:
            raise ValueError(
                f"initial snapshot has {initial.num_vertices} vertices, "
                f"more than the declared id space {num_vertices}"
            )
        self.num_vertices = num_vertices
        self.feature_dim = feature_dim
        if initial is None or initial.num_edges == 0:
            src = dst = np.empty(0, dtype=np.int64)
        else:
            src, dst = initial.edge_arrays()
        self.current = GraphSnapshot.from_edge_arrays(
            num_vertices, src, dst, feature_dim=feature_dim
        )

    def close_window(
        self, events: List[EdgeEvent], timestamp: int = 0
    ) -> Tuple[GraphSnapshot, SnapshotDelta]:
        """Apply one window's events and return ``(snapshot, delta)``.

        ``delta`` is the exact net change versus the previous window —
        churn inside the window (add then remove, duplicate adds, removes
        of absent edges) cancels out, mirroring the edge-*set* semantics
        of :meth:`ContinuousDynamicGraph.edges_at`.
        """
        delta = self._net_delta(events)
        if delta.num_changes:
            self.current = apply_delta(self.current, delta, timestamp=timestamp)
        return self.current, delta

    def _net_delta(self, events: List[EdgeEvent]) -> SnapshotDelta:
        """Each edge's last event, against the current snapshot's edges.

        Events are ordered as ``sorted(events)`` orders them, by
        ``(time, src, dst, kind)``; within one edge that is ``(time,
        kind)``, so one lexsort by (edge key, time, kind) puts every
        edge's final event last in its group.
        """
        count = len(events)
        times = np.fromiter((e.time for e in events), dtype=np.float64, count=count)
        src = np.fromiter((e.src for e in events), dtype=np.int64, count=count)
        dst = np.fromiter((e.dst for e in events), dtype=np.int64, count=count)
        remove = np.fromiter((e.kind != _ADD for e in events), dtype=bool, count=count)
        space = self.num_vertices
        outside = np.flatnonzero((src >= space) | (dst >= space))
        if len(outside):
            raise ValueError(
                f"event {events[outside[0]]} outside the fixed vertex space "
                f"[0, {space})"
            )
        id_space = max(space, 1)
        keys = dst * id_space + src
        order = np.lexsort((remove, times, keys))
        keys, remove = keys[order], remove[order]
        last = np.ones(count, dtype=bool)
        last[:-1] = keys[1:] != keys[:-1]
        keys, remove = keys[last], remove[last]
        live = sorted_isin(keys, snapshot_edge_keys(self.current, id_space))
        added = keys[~remove & ~live]
        removed = keys[remove & live]
        return SnapshotDelta(
            added_src=added % id_space,
            added_dst=added // id_space,
            removed_src=removed % id_space,
            removed_dst=removed // id_space,
        )


class ShardedWindowBuilder:
    """Builds one shard's window sequence from pre-routed, pre-validated events.

    The sharded serving layer (:mod:`repro.dist`) splits ingest in two:
    the router (coordinator side) validates events and assigns window
    indices exactly as :class:`WindowedIngestor` does, then each shard
    worker turns its slice of ``(window_index, event)`` pairs into
    :class:`Window`\\ s over the shard's *own* subgraph.  Because
    every event for an edge routes to the shard owning its destination
    vertex, the per-shard net deltas are disjoint and concatenate to the
    exact global delta — the coordinator's merge invariant.

    ``start_window`` makes the builder resumable: a restarted worker is
    seeded with the shard subgraph of the last merged global snapshot and
    replays only the windows after it.
    """

    def __init__(
        self,
        num_vertices: int,
        window: float,
        feature_dim: int = 1,
        initial: Optional[GraphSnapshot] = None,
        origin: float = 0.0,
        start_window: int = 0,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if start_window < 0:
            raise ValueError(f"start_window must be >= 0, got {start_window}")
        self.window = window
        self.origin = origin
        self.next_index = start_window
        self.builder = IncrementalWindowBuilder(num_vertices, feature_dim, initial)

    def build(
        self,
        routed: Iterable[Tuple[int, EdgeEvent]],
        end_window: int,
    ) -> Iterator[Window]:
        """Yield windows ``next_index .. end_window - 1`` in order.

        ``routed`` must be sorted by window index (the router emits it
        that way) with every index in ``[next_index, end_window)``.  Gaps
        — and trailing windows this shard received no events for — are
        emitted as empty windows, so every shard produces the identical
        window count regardless of where events landed.
        """
        buffer: List[EdgeEvent] = []
        for index, event in routed:
            if index < self.next_index:
                raise ValueError(
                    f"routed event for window {index} arrived after window "
                    f"{self.next_index} opened (router must sort by window)"
                )
            if index >= end_window:
                raise ValueError(
                    f"routed event for window {index} beyond end_window "
                    f"{end_window}"
                )
            while self.next_index < index:
                yield self._close(buffer)
                buffer = []
            buffer.append(event)
        while self.next_index < end_window:
            yield self._close(buffer)
            buffer = []

    def _close(self, buffer: List[EdgeEvent]) -> Window:
        index = self.next_index
        snapshot, delta = self.builder.close_window(buffer, timestamp=index)
        self.next_index += 1
        return Window(
            index=index,
            snapshot=snapshot,
            delta=delta,
            num_events=len(buffer),
            close_time=self.origin + (index + 1) * self.window,
            closed_at=wall_clock(),
        )


class WindowedIngestor:
    """Streams events into :class:`Window`\\ s of fixed time width."""

    def __init__(
        self,
        num_vertices: int,
        window: float,
        feature_dim: int = 1,
        initial: Optional[GraphSnapshot] = None,
        origin: Optional[float] = None,
        strict_time_order: bool = False,
        quarantine: bool = False,
        start_window: int = 0,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if start_window < 0:
            raise ValueError(f"start_window must be >= 0, got {start_window}")
        self.window = window
        self.origin = origin
        self.strict_time_order = strict_time_order
        self.quarantine = quarantine
        #: durable-resume watermark: windows below it were already served
        #: (and are baked into ``initial``), so their replayed events are
        #: consumed for validation/late accounting but never re-applied
        #: or re-yielded — the exactly-once half of crash recovery
        self.start_window = start_window
        self.builder = IncrementalWindowBuilder(num_vertices, feature_dim, initial)
        self.late_events = 0
        self.total_events = 0
        #: events consumed into already-recovered windows during a resume
        self.replayed_events = 0
        #: dead-letter queue (populated only with ``quarantine=True``)
        self.rejected: List[RejectedEvent] = []

    @property
    def quarantined_events(self) -> int:
        """Malformed events diverted into the dead-letter queue."""
        return len(self.rejected)

    @classmethod
    def for_stream(
        cls,
        stream: ContinuousDynamicGraph,
        window: float,
        feature_dim: Optional[int] = None,
        origin: Optional[float] = None,
        strict_time_order: bool = False,
        quarantine: bool = False,
        initial: Optional[GraphSnapshot] = None,
        start_window: int = 0,
    ) -> "WindowedIngestor":
        """An ingestor matched to ``stream``'s vertex space and initial graph.

        ``initial``/``start_window`` are the durable-resume overrides:
        recovery seeds the builder with the checkpointed snapshot (which
        already contains windows below the watermark) instead of the
        stream's own initial graph.
        """
        return cls(
            num_vertices=stream.num_vertices,
            window=window,
            feature_dim=feature_dim or stream.initial.feature_dim,
            initial=initial if initial is not None else stream.initial,
            origin=origin,
            strict_time_order=strict_time_order,
            quarantine=quarantine,
            start_window=start_window,
        )

    def _close(self, index: int, buffer: List[EdgeEvent]) -> Window:
        anchor = self.origin if self.origin is not None else 0.0
        snapshot, delta = self.builder.close_window(buffer, timestamp=index)
        return Window(
            index=index,
            snapshot=snapshot,
            delta=delta,
            num_events=len(buffer),
            close_time=anchor + (index + 1) * self.window,
            closed_at=wall_clock(),
        )

    def windows(self, events: Iterable[EdgeEvent]) -> Iterator[Window]:
        """Consume ``events`` and yield windows as they close.

        The final (possibly partial) window is flushed when the iterable
        is exhausted.  An empty stream yields a single window holding the
        initial graph, matching
        :meth:`ContinuousDynamicGraph.discretize_windows`.

        With ``start_window > 0`` (durable resume) the window clock still
        runs from 0 — validation, origin anchoring, and the late-event
        rule see exactly what the uninterrupted run saw — but windows
        below the watermark are *suppressed*: their events are dropped at
        close (counted in ``replayed_events``) instead of being applied,
        because the builder's initial snapshot already contains them.
        """
        current = 0
        buffer: List[EdgeEvent] = []
        for position, event in enumerate(events):
            self.total_events += 1
            fault = event_fault(event, self.builder.num_vertices)
            if fault is not None:
                # Validate before the event can anchor the origin or hit
                # ``window_index`` (a NaN timestamp breaks both).
                if not self.quarantine:
                    raise ValueError(f"malformed event {event}: {fault}")
                self.rejected.append(RejectedEvent(event, fault, position))
                continue
            if self.origin is None:
                self.origin = event.time
            index = window_index(event.time, self.origin, self.window)
            if index < current:
                if self.strict_time_order:
                    raise ValueError(
                        f"late event {event}: window {index} already closed "
                        f"(serving window {current})"
                    )
                self.late_events += 1
                continue
            if index > current:
                if current >= self.start_window:
                    yield self._close(current, buffer)
                else:
                    self.replayed_events += len(buffer)
                buffer = []
                for gap in range(max(current + 1, self.start_window), index):
                    yield self._close(gap, [])
                current = index
            buffer.append(event)
        # Always flush: an empty stream still serves one (initial) window.
        # On a resume whose stream ends inside the recovered prefix the
        # flush would re-serve a committed window — suppress it instead.
        if current >= self.start_window:
            yield self._close(current, buffer)
        else:
            self.replayed_events += len(buffer)
