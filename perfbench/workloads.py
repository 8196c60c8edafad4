"""The three serving workloads and the set-up each run repeats.

Every workload drives the public ``StreamingService.serve(stream, spec)``
API with the ``repro serve`` defaults (``workers=2``, ``pipeline_depth=2``,
``max_batch_windows=4``, ``queue_capacity=8``).  The service only ever sees
the generated stream; the seed stays on the benchmark side.
"""

from __future__ import annotations

import contextlib
import copy
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional

__all__ = [
    "WORKLOADS",
    "Inputs",
    "Workload",
    "build_service",
    "durable_root",
    "make_inputs",
    "paced_stream",
    "service_config",
]

#: the ``repro serve`` defaults every workload runs with
SERVE_DEFAULTS = dict(
    workers=2, pipeline_depth=2, max_batch_windows=4, queue_capacity=8
)


@dataclass(frozen=True)
class Workload:
    """One traffic mix: which stream, how fast it is offered, durable or not."""

    name: str
    why: str
    #: stream-time width of one window
    window: float
    #: window-clock anchor (``None``: the first event time)
    origin: Optional[float]
    #: stream-time units released per second; ``None`` offers every event
    #: at the start (closed-loop, max-rate replay)
    rate: Optional[float] = None
    #: serve with durable ingest (WAL + a checkpoint every window)
    durable: bool = False

    @property
    def paced(self) -> bool:
        return self.rate is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stream-durable",
            "max-rate synthetic stream, 200 windows of ~1k events, WAL and a "
            "checkpoint every window: ingest, plan, execute and commit all run",
            window=1000.0,  # events are uniform over [0, 200k): ~1k per window
            origin=None,
            durable=True,
        ),
        Workload(
            "replay-paced",
            "Twitter snapshots released at 20/s, below saturation: the "
            "paper's snapshot-to-result latency, execute-dominated",
            # Snapshot t's delta is stamped at time t: window=1 with origin=0
            # serves one snapshot per window.
            window=1.0,
            origin=0.0,
            rate=20.0,
        ),
    )
}


@dataclass
class Inputs:
    """Everything a run generates from its seed, once, before timing."""

    stream: object  # repro ContinuousDynamicGraph
    spec: object  # repro DGNNSpec
    #: per-event due offsets in seconds after the schedule start
    offsets: List[float]
    #: per-event window index, by the service's own windowing rule
    window_of_event: List[int]
    expected_windows: int
    #: per window, the stream position of the event whose arrival closes it
    #: (the first event of a later window); ``None``: closed by the stream's end
    closing_position: List[Optional[int]]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's stream from ``seed``."""
    from repro.core.plan import DGNNSpec
    from repro.graphs.continuous import window_index
    from repro.graphs.datasets import dataset_profile
    from repro.serving import stream_from_dataset, synthetic_event_stream

    if workload.paced:
        # 200 one-snapshot windows (~110 events each) on a ~15k-edge graph.
        stream = stream_from_dataset("twitter", scale=0.125, snapshots=201, seed=seed)
        spec = DGNNSpec.classic(dataset_profile("twitter").feature_dim)
    else:
        stream = synthetic_event_stream(
            num_vertices=1024, num_events=200_000, seed=seed
        )
        spec = DGNNSpec.classic(64, 64)  # `repro serve` synthetic defaults
    events = stream.events
    first = stream.time_span[0]
    if workload.paced:
        offsets = [(e.time - first) / workload.rate for e in events]
    else:
        offsets = [0.0] * len(events)
    anchor = workload.origin if workload.origin is not None else first
    window_of_event = [window_index(e.time, anchor, workload.window) for e in events]
    expected = stream.num_windows(workload.window, origin=workload.origin)
    closing: List[Optional[int]] = [None] * expected
    current = 0
    for position, index in enumerate(window_of_event):
        for closed in range(current, index):
            closing[closed] = position
        current = max(current, index)
    return Inputs(
        stream=stream,
        spec=spec,
        offsets=offsets,
        window_of_event=window_of_event,
        expected_windows=expected,
        closing_position=closing,
    )


def service_config(workload: Workload, root: Optional[Path]):
    """The workload's ``ServiceConfig``; durable when ``root`` is given."""
    from repro.serving import ServiceConfig

    durability = None
    if root is not None:
        from repro.durability import DurabilityConfig

        # CLI defaults except fsync: the root sits in the checkout, often on
        # a shared disk, where fsync latency measures the neighbours.
        # Skipping it times the commit path as a tmpfs root would, where
        # fsync returns at once.
        durability = DurabilityConfig(directory=str(root), fsync=False)
    return ServiceConfig(
        window=workload.window,
        origin=workload.origin,
        durability=durability,
        **SERVE_DEFAULTS,
    )


def build_service(workload: Workload, root: Optional[Path]):
    """A fresh accelerator model and service: the set-up ``setup_s`` times."""
    from repro.ditile import DiTileAccelerator
    from repro.serving import StreamingService

    return StreamingService(DiTileAccelerator(), service_config(workload, root))


def paced_stream(stream, pacer):
    """A shallow copy of ``stream`` whose ``events`` the service pulls from
    ``pacer`` (the service iterates ``stream.events`` lazily on its ingest
    thread)."""
    paced = copy.copy(stream)
    paced.events = pacer
    return paced


@contextlib.contextmanager
def durable_root(parent: Path) -> Iterator[Path]:
    """A fresh, empty durability root under ``parent``, removed on exit even
    when the run raises."""
    parent.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="durable-", dir=parent))
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)
