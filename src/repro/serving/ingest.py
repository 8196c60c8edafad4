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

Per event, ingest only compares the event's time with the open window's
upper bound and appends the event to a list.  The events that arrived
while a window was open are validated, checked for lateness and netted
as NumPy columns when that window closes (:func:`classify_events`).

Streaming realities handled here:

* **Out-of-order events** inside the still-open window are buffered and
  sorted at close (the same ``(time, src, dst, kind)`` order
  :class:`~repro.graphs.continuous.ContinuousDynamicGraph` applies).
* **Late events** — older than the already-closed window — are dropped
  and counted.
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
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.continuous import (
    ContinuousDynamicGraph,
    EdgeEvent,
    EventColumns,
    window_index,
    window_indices,
)
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
    "classify_events",
    "IncrementalWindowBuilder",
    "WindowedIngestor",
]

#: tries at stepping a window's nominal upper edge down past rounding
#: before the per-event bound falls back to a time known to be inside
_EDGE_STEPS = 4


@dataclass(frozen=True)
class RejectedEvent:
    """One quarantined event in the ingest dead-letter queue."""

    event: EdgeEvent
    reason: str
    #: stream position at which the event arrived (0-based)
    position: int


def event_fault(event: EdgeEvent, num_vertices: int) -> Optional[str]:
    """Why ``event`` is malformed, or ``None`` if it is well-formed.

    The single validation rule shared by the raising and quarantine
    (dead-letter) paths, so both reject exactly the same
    events for exactly the same reasons.  :func:`classify_events` is its
    columnar form.
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


def classify_events(
    events: EventColumns,
    num_vertices: int,
    origin: Optional[float],
    window: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Ingest's validation and window rule over a batch of events.

    Returns ``(faulty, index)``.  ``faulty`` flags exactly the rows
    :func:`event_fault` rejects; ``index`` holds each valid row's
    :func:`~repro.graphs.continuous.window_index` (``-1`` on faulty
    rows).  A ``None`` origin is anchored at the first valid row's time,
    as ingest anchors it.
    """
    times, src, dst = events.times, events.src, events.dst
    faulty = (
        ~np.isfinite(times)
        | (times < 0)
        | (src < 0)
        | (src >= num_vertices)
        | (dst < 0)
        | (dst >= num_vertices)
    )
    valid = np.flatnonzero(~faulty)
    index = np.full(len(times), -1, dtype=np.int64)
    if len(valid):
        if origin is None:
            origin = float(times[valid[0]])
        index[valid] = window_indices(times[valid], origin, window)
    return faulty, index


def _columns(events: Sequence[EdgeEvent]) -> EventColumns:
    """:meth:`EventColumns.from_events`, with ids past int64 capped.

    Such an id is outside every vertex space, and capping keeps it so,
    so the fault rule flags its event instead of the column overflowing.
    """
    try:
        return EventColumns.from_events(events)
    except OverflowError:
        cap = np.iinfo(np.int64).max
        return EventColumns.from_events(
            [replace(e, src=min(e.src, cap), dst=min(e.dst, cap)) for e in events]
        )


_NO_EVENTS = EventColumns.from_events([])


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
        self, events: EventColumns, timestamp: int = 0
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

    def _net_delta(self, events: EventColumns) -> SnapshotDelta:
        """Each edge's last event, against the current snapshot's edges.

        Events are ordered as ``sorted(events)`` orders them, by
        ``(time, src, dst, kind)``; within one edge that is ``(time,
        kind)``, so one lexsort by (edge key, time, kind) puts every
        edge's final event last in its group.
        """
        src, dst, remove = events.src, events.dst, events.remove
        space = self.num_vertices
        outside = np.flatnonzero(
            (src < 0) | (src >= space) | (dst < 0) | (dst >= space)
        )
        if len(outside):
            row = outside[0]
            raise ValueError(
                f"edge ({src[row]}, {dst[row]}) at time {events.times[row]} "
                f"outside the fixed vertex space [0, {space})"
            )
        id_space = max(space, 1)
        keys = dst * id_space + src
        order = np.lexsort((remove, events.times, keys))
        keys, remove = keys[order], remove[order]
        last = np.ones(len(keys), dtype=bool)
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


class WindowedIngestor:
    """Streams events into :class:`Window`\\ s of fixed time width."""

    def __init__(
        self,
        num_vertices: int,
        window: float,
        feature_dim: int = 1,
        initial: Optional[GraphSnapshot] = None,
        origin: Optional[float] = None,
        quarantine: bool = False,
        start_window: int = 0,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if start_window < 0:
            raise ValueError(f"start_window must be >= 0, got {start_window}")
        self.window = window
        self.origin = origin
        self.quarantine = quarantine
        #: durable-resume watermark: windows below it were already served
        #: (and are baked into ``initial``), so their replayed events are
        #: consumed for validation/late accounting but never re-applied
        #: or re-yielded — the exactly-once half of crash recovery
        self.start_window = start_window
        self.builder = IncrementalWindowBuilder(num_vertices, feature_dim, initial)
        self.late_events = 0
        self.total_events = 0
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
            quarantine=quarantine,
            start_window=start_window,
        )

    def _close(self, index: int, events: EventColumns) -> Window:
        anchor = self.origin if self.origin is not None else 0.0
        snapshot, delta = self.builder.close_window(events, timestamp=index)
        return Window(
            index=index,
            snapshot=snapshot,
            delta=delta,
            num_events=len(events),
            close_time=anchor + (index + 1) * self.window,
            closed_at=wall_clock(),
        )

    def _upper_bound(self, index: int, floor: float) -> float:
        """A time no later than the last one window ``index`` holds.

        ``floor`` is a time known to be in the window (``-inf`` before the
        origin is anchored), and the bound is never below it.  Every time
        at or below the bound falls in window ``index`` or an earlier one,
        because :func:`window_index` never decreases with time.  The bound
        starts at the nominal edge ``origin + (index + 1) * window`` and
        steps down an ulp at a time while rounding puts the edge itself in
        the next window.
        """
        origin, width = self.origin, self.window
        if origin is None:
            return floor
        edge = origin + (index + 1) * width
        for _ in range(_EDGE_STEPS):
            if not (math.isfinite(edge) and edge > floor):
                break
            if window_index(edge, origin, width) <= index:
                return edge
            edge = math.nextafter(edge, -math.inf)
        return floor

    def _close_events(
        self, index: int, events: List[EdgeEvent], start: int
    ) -> Optional[Window]:
        """Validate, window and apply the events that arrived while window
        ``index`` was open; ``start`` is the stream position of ``events[0]``.

        Returns the closed window, or ``None`` for a window below the
        resume watermark.  The first malformed event (unless quarantined)
        raises here.
        """
        columns = _columns(events)
        space = self.builder.num_vertices
        faulty, rows_window = classify_events(
            columns, space, self.origin, self.window
        )
        if faulty.any() and not self.quarantine:
            event = events[int(np.argmax(faulty))]
            raise ValueError(
                f"malformed event {event}: {event_fault(event, space)}"
            )
        # The bound kept every valid row at or below window ``index``;
        # the rows below it belong to windows that already closed.
        late = ~faulty & (rows_window < index)
        self.total_events += len(events)
        for row in np.flatnonzero(faulty):
            event = events[row]
            self.rejected.append(
                RejectedEvent(event, event_fault(event, space), start + int(row))
            )
        self.late_events += int(np.count_nonzero(late))
        if index < self.start_window:
            return None
        return self._close(index, columns.take(~(faulty | late)))

    def windows(self, events: Iterable[EdgeEvent]) -> Iterator[Window]:
        """Consume ``events`` and yield windows as they close.

        The final (possibly partial) window is flushed when the iterable
        is exhausted.  An empty stream yields a single window holding the
        initial graph, matching
        :meth:`ContinuousDynamicGraph.discretize_windows`.

        An event at or below the open window's upper bound
        (:meth:`_upper_bound`) is appended to the window's list and
        nothing else.  Every other event (later, or with a NaN time) goes
        through :func:`event_fault` and :func:`window_index` on its own:
        it may anchor the origin, open a later window (closing the open
        one and emitting any empty gap windows) or raise the bound.  The
        listed events are classified as columns when their window closes.

        With ``start_window > 0`` (durable resume) the window clock still
        runs from 0 — validation, origin anchoring, and the late-event
        rule see exactly what the uninterrupted run saw — but windows
        below the watermark are *suppressed*: their events are dropped at
        close instead of being applied, because the initial snapshot
        already contains them.
        """
        current = 0
        start = 0  # stream position of pending[0]
        pending: List[EdgeEvent] = []
        append = pending.append
        bound = self._upper_bound(0, -math.inf)
        for event in events:
            if event.time <= bound:
                append(event)
                continue
            # Validate before the event can anchor the origin or hit
            # ``window_index`` (a NaN timestamp breaks both); a malformed
            # event waits in the list for the close to reject it.
            if event_fault(event, self.builder.num_vertices) is None:
                if self.origin is None:
                    self.origin = event.time
                index = window_index(event.time, self.origin, self.window)
                if index > current:
                    closed = self._close_events(current, pending, start)
                    if closed is not None:
                        yield closed
                    start += len(pending)
                    pending = []
                    append = pending.append
                    for gap in range(max(current + 1, self.start_window), index):
                        yield self._close(gap, _NO_EVENTS)
                    current = index
                if index == current:
                    bound = self._upper_bound(current, event.time)
            append(event)
        # Always flush: an empty stream still serves one (initial) window.
        # On a resume whose stream ends inside the recovered prefix the
        # flush would re-serve a committed window — it is suppressed.
        closed = self._close_events(current, pending, start)
        if closed is not None:
            yield closed
