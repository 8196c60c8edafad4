"""Event-stream sources for the serving layer.

Two on-ramps:

* :func:`synthetic_event_stream` — a power-law interaction stream with
  bursty intensity and a removal minority, the standing load generator
  for service tests and throughput benchmarks;
* :func:`stream_from_dataset` — replays a Table 1 dataset's snapshot
  deltas as timestamped events, so the offline workloads double as
  online traffic.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..graphs.continuous import ContinuousDynamicGraph, EdgeEvent
from ..graphs.datasets import load_dataset
from ..graphs.snapshot import GraphSnapshot

__all__ = ["synthetic_event_stream", "stream_from_dataset"]


def synthetic_event_stream(
    num_vertices: int = 256,
    num_events: int = 10_000,
    seed: int = 7,
    remove_fraction: float = 0.15,
    burst_period: float = 0.0,
    name: str = "synthetic-stream",
) -> ContinuousDynamicGraph:
    """A reproducible power-law edge-event stream.

    Sources are uniform; destinations follow a Zipf-like popularity
    profile (hub-heavy, as real interaction graphs are).  About
    ``remove_fraction`` of events delete a currently-live edge.  With
    ``burst_period > 0`` the event *times* cluster into periodic bursts,
    producing windows of very different sizes — the plan-cache /
    backpressure stress case; otherwise times are uniform over
    ``[0, num_events)``.
    """
    if num_vertices < 2:
        raise ValueError("num_vertices must be >= 2")
    if num_events < 0:
        raise ValueError("num_events must be >= 0")
    if not 0 <= remove_fraction < 1:
        raise ValueError("remove_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    weights = np.arange(1, num_vertices + 1, dtype=np.float64) ** -1.0
    weights /= weights.sum()
    # The CDF ``rng.choice(n, p=weights)`` builds (and re-validates) on
    # every call; searching it with one ``rng.random()`` makes the same
    # draw from the same generator state.
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    times = np.sort(rng.uniform(0.0, float(num_events), size=num_events))
    if burst_period > 0:
        # Fold each time toward the start of its burst period, packing
        # events into the first third of every period.
        phase = np.mod(times, burst_period)
        times = times - phase + phase / 3.0
        times = np.sort(times)
    live: List[tuple] = []
    live_set = set()
    events: List[EdgeEvent] = []
    for t in times:
        if live and rng.random() < remove_fraction:
            pos = int(rng.integers(len(live)))
            src, dst = live[pos]
            live[pos] = live[-1]
            live.pop()
            live_set.discard((src, dst))
            events.append(EdgeEvent(float(t), src, dst, "remove"))
            continue
        src = int(rng.integers(num_vertices))
        dst = int(cdf.searchsorted(rng.random(), side="right"))
        if src == dst:
            dst = (dst + 1) % num_vertices
        if (src, dst) not in live_set:
            live.append((src, dst))
            live_set.add((src, dst))
        events.append(EdgeEvent(float(t), src, dst, "add"))
    return ContinuousDynamicGraph(
        GraphSnapshot.empty(num_vertices), events, name=name
    )


def stream_from_dataset(
    dataset: str,
    scale: float = 0.0625,
    snapshots: Optional[int] = None,
    seed: int = 7,
    name: Optional[str] = None,
) -> ContinuousDynamicGraph:
    """Replay a synthesized Table 1 dataset as an event stream.

    The dataset's first snapshot becomes the initial graph; each later
    snapshot transition contributes its exact edge delta at integer times
    ``1..T-1``.  Serving the result with ``window=1.0`` and ``origin=0``
    reproduces the offline snapshots one-to-one.
    """
    graph = load_dataset(dataset, scale=scale, snapshots=snapshots, seed=seed)
    return ContinuousDynamicGraph.from_snapshots(graph, name=name)
