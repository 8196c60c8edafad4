"""Columnar ingest against a per-event reference and ``edges_at`` snapshots.

``WindowedIngestor.windows`` only compares each event's time with the open
window's upper bound and lists it; validation, late detection and window
assignment run as NumPy columns when the window closes.  The reference
below is the per-event loop that rule replaces: every event goes through
``event_fault`` and ``window_index`` as it arrives.  Both must yield the
same windows and counters on adversarial streams, and raise the same
error for the first offending event (the columnar path raises it when
that event's window closes, before the window is yielded).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.continuous import (
    ContinuousDynamicGraph,
    EdgeEvent,
    EventColumns,
    window_index,
    window_indices,
)
from repro.graphs.snapshot import GraphSnapshot
from repro.serving import ingest
from repro.serving.ingest import (
    RejectedEvent,
    WindowedIngestor,
    classify_events,
    event_fault,
)

N = 5  # vertex space of every generated stream


class _Reference:
    """The per-event windowing loop: validate, window, buffer, close."""

    def __init__(self, window, origin, strict, quarantine, start_window):
        self.window = window
        self.origin = origin
        self.strict = strict
        self.quarantine = quarantine
        self.start_window = start_window
        self.late_events = 0
        self.total_events = 0
        self.replayed_events = 0
        self.rejected = []

    def windows(self, events):
        """Yield ``(index, buffered events)``; gap windows hold none."""
        current = 0
        buffer = []
        for position, event in enumerate(events):
            self.total_events += 1
            fault = event_fault(event, N)
            if fault is not None:
                if not self.quarantine:
                    raise ValueError(f"malformed event {event}: {fault}")
                self.rejected.append(RejectedEvent(event, fault, position))
                continue
            if self.origin is None:
                self.origin = event.time
            index = window_index(event.time, self.origin, self.window)
            if index < current:
                if self.strict:
                    raise ValueError(
                        f"late event {event}: window {index} already closed "
                        f"(serving window {current})"
                    )
                self.late_events += 1
                continue
            if index > current:
                if current >= self.start_window:
                    yield current, buffer
                else:
                    self.replayed_events += len(buffer)
                buffer = []
                for gap in range(max(current + 1, self.start_window), index):
                    yield gap, []
                current = index
            buffer.append(event)
        if current >= self.start_window:
            yield current, buffer
        else:
            self.replayed_events += len(buffer)


def _apply(edges, events):
    """Edge-set semantics of ``ContinuousDynamicGraph.edges_at``."""
    edges = set(edges)
    for event in sorted(events):
        if event.kind == "add":
            edges.add((event.src, event.dst))
        else:
            edges.discard((event.src, event.dst))
    return edges


def _drain(iterator):
    """Everything ``iterator`` yields, then the error it raised (or None)."""
    out = []
    try:
        for item in iterator:
            out.append(item)
    except ValueError as exc:
        return out, (type(exc), str(exc))
    return out, None


def _pairs(src, dst):
    return set(zip(src.tolist(), dst.tolist()))


# ---------------------------------------------------------------------------
# Adversarial streams
# ---------------------------------------------------------------------------
_SPECIAL_TIMES = [math.nan, math.inf, -math.inf, -1.0, -0.0, -1e-300]


@st.composite
def _times(draw, anchor, window):
    """A boundary ``anchor + k*window`` or an ulp neighbour, a gap-sized
    jump, a plain float, or a malformed time."""
    kind = draw(st.sampled_from(["edge", "edge", "float", "far", "special"]))
    if kind == "special":
        return draw(st.sampled_from(_SPECIAL_TIMES))
    if kind == "far":
        return anchor + draw(st.integers(8, 40)) * window
    if kind == "float":
        return draw(st.floats(0.0, anchor + 9 * window))
    edge = anchor + draw(st.integers(0, 9)) * window
    step = draw(st.sampled_from([-2, -1, 0, 0, 1, 2]))
    for _ in range(abs(step)):
        edge = math.nextafter(edge, math.copysign(math.inf, step))
    return edge


@st.composite
def streams(draw):
    window = draw(st.sampled_from([1.0, 2.5, 0.1, 3.0]))
    origin = draw(st.sampled_from([None, 0.0, 0.3, 1.7]))
    anchor = origin if origin is not None else draw(st.sampled_from([0.0, 0.3]))
    vertex = st.one_of(
        *[st.integers(0, N - 1)] * 6, st.integers(N, N + 3), st.just(2**70)
    )
    kind = st.sampled_from(["add", "remove"])
    events = [
        EdgeEvent(draw(_times(anchor, window)), draw(vertex), draw(vertex), draw(kind))
        for _ in range(draw(st.integers(0, 40)))
    ]
    # Same-time add/remove churn of one edge.
    for _ in range(draw(st.integers(0, 3))):
        t = draw(_times(anchor, window))
        s, d = draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1))
        events += [EdgeEvent(t, s, d, "add"), EdgeEvent(t, s, d, "remove")]
    if draw(st.booleans()):
        # Mostly in order: sort by time (NaN last), then move a few events
        # elsewhere, so some arrive after their window closed.
        events.sort(key=lambda e: (math.isnan(e.time), np.nan_to_num(e.time)))
        for _ in range(draw(st.integers(0, 3))):
            if events:
                moved = events.pop(draw(st.integers(0, len(events) - 1)))
                events.insert(draw(st.integers(0, len(events))), moved)
    vertex_in_space = st.integers(0, N - 1)
    initial = draw(st.sets(st.tuples(vertex_in_space, vertex_in_space), max_size=6))
    return dict(
        events=events,
        window=window,
        origin=origin,
        initial=GraphSnapshot.from_edges(N, initial),
        strict=draw(st.booleans()),
        quarantine=draw(st.booleans()),
        start_window=draw(st.sampled_from([0, 0, 1, 3])),
    )


class TestColumnarIngest:
    @settings(max_examples=250, deadline=None)
    @given(streams())
    def test_matches_per_event_reference(self, case):
        events, window, origin = case["events"], case["window"], case["origin"]
        ingestor = WindowedIngestor(
            N,
            window,
            initial=case["initial"],
            origin=origin,
            strict_time_order=case["strict"],
            quarantine=case["quarantine"],
            start_window=case["start_window"],
        )
        reference = _Reference(
            window, origin, case["strict"], case["quarantine"], case["start_window"]
        )
        served, error = _drain(ingestor.windows(iter(events)))
        expected, expected_error = _drain(reference.windows(events))
        assert error == expected_error
        assert [w.index for w in served] == [index for index, _ in expected]
        edges = case["initial"].edge_set()
        for got, (index, buffered) in zip(served, expected):
            after = _apply(edges, buffered)
            assert got.num_events == len(buffered)
            assert got.snapshot.edge_set() == after
            assert _pairs(got.delta.added_src, got.delta.added_dst) == after - edges
            assert _pairs(got.delta.removed_src, got.delta.removed_dst) == edges - after
            anchor = reference.origin if reference.origin is not None else 0.0
            assert got.close_time == anchor + (index + 1) * window
            edges = after
        if error is not None:
            return
        assert ingestor.origin == reference.origin
        assert ingestor.late_events == reference.late_events
        assert ingestor.total_events == reference.total_events == len(events)
        assert ingestor.replayed_events == reference.replayed_events
        assert ingestor.rejected == reference.rejected

    @settings(max_examples=100, deadline=None)
    @given(streams())
    def test_matches_edges_at_on_in_order_streams(self, case):
        # Keep the valid events in time order: no late or malformed ones.
        events = sorted(e for e in case["events"] if event_fault(e, N) is None)
        window, origin = case["window"], case["origin"]
        stream = ContinuousDynamicGraph(case["initial"], events)
        anchor = origin if origin is not None else (events[0].time if events else 0.0)
        edges_agree = all(
            anchor + k * window < e.time <= anchor + (k + 1) * window
            or (k == 0 and e.time <= anchor + window)
            for e in events
            for k in [window_index(e.time, anchor, window)]
        )
        if not edges_agree:
            return  # float rounding puts the edge in another window than edges_at
        ingestor = WindowedIngestor(N, window, initial=case["initial"], origin=origin)
        served = list(ingestor.windows(events))
        assert len(served) == stream.num_windows(window, origin=origin)
        for k, got in enumerate(served):
            assert got.snapshot.edge_set() == stream.edges_at(anchor + (k + 1) * window)
        assert ingestor.late_events == 0 and not ingestor.rejected

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-1e6, 1e6),
        st.floats(1e-3, 1e3),
        st.integers(0, 10**6),
    )
    def test_upper_bound_never_passes_the_window(self, origin, window, index):
        ingestor = WindowedIngestor(N, window, origin=origin)
        floor = origin + index * window
        bound = ingestor._upper_bound(index, floor)
        assert bound >= floor
        assert window_index(bound, origin, window) <= max(
            index, window_index(floor, origin, window)
        )

    def test_in_window_events_skip_the_per_event_rule(self, monkeypatch):
        # Only events past the open window's bound meet event_fault one by
        # one: here, the first event and the one opening each window.
        calls = []

        def counted(event, num_vertices):
            calls.append(event)
            return event_fault(event, num_vertices)

        monkeypatch.setattr(ingest, "event_fault", counted)
        events = [EdgeEvent(0.01 * i, i % N, (i + 1) % N) for i in range(1, 1001)]
        served = list(WindowedIngestor(N, 1.0).windows(events))
        assert len(served) == 10
        assert len(calls) <= 2 * len(served)

    def test_window_indices_match_the_scalar_rule_at_ulps(self):
        origin, window = 0.3, 0.1
        times = []
        for k in range(200):
            edge = origin + k * window
            below = math.nextafter(edge, -math.inf)
            times += [below, edge, math.nextafter(edge, math.inf)]
        got = window_indices(np.array(times), origin, window)
        assert got.tolist() == [window_index(t, origin, window) for t in times]


class TestClassifyEvents:
    def test_flags_what_event_fault_flags(self):
        events = [
            EdgeEvent(math.nan, 0, 1),
            EdgeEvent(-math.inf, 0, 1),
            EdgeEvent(-0.5, 0, 1),
            EdgeEvent(1.0, N, 1),
            EdgeEvent(1.0, 1, N + 7),
            EdgeEvent(0.0, 0, 1),
            EdgeEvent(2.5, 1, 2, "remove"),
        ]
        faulty, index = classify_events(EventColumns.from_events(events), N, None, 1.0)
        assert faulty.tolist() == [event_fault(e, N) is not None for e in events]
        # The first valid event (time 0.0) anchors the clock.
        assert index.tolist() == [-1, -1, -1, -1, -1, 0, 2]

    def test_quarantined_huge_id_keeps_its_position(self):
        events = [EdgeEvent(0.0, 0, 1), EdgeEvent(0.5, 2**70, 1), EdgeEvent(0.7, 1, 2)]
        ingestor = WindowedIngestor(N, 1.0, quarantine=True)
        (window,) = list(ingestor.windows(events))
        assert window.num_events == 2
        assert ingestor.rejected == [
            RejectedEvent(events[1], event_fault(events[1], N), 1)
        ]

    def test_strict_late_event_raises_at_its_window_close(self):
        events = [EdgeEvent(0.0, 0, 1), EdgeEvent(5.0, 1, 2), EdgeEvent(0.5, 2, 3)]
        ingestor = WindowedIngestor(N, 1.0, strict_time_order=True)
        windows = ingestor.windows(events)
        assert [next(windows).index for _ in range(4)] == [0, 1, 2, 3]
        late = r"late event .*: window 0 already closed \(serving window 4\)"
        with pytest.raises(ValueError, match=late):
            next(windows)
