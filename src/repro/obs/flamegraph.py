"""Collapsed-stack flamegraph export (Brendan Gregg's folded format).

One line per unique span ancestry path — ``frame;frame;frame value`` —
where ``value`` is the path's **self time** in microseconds (the span's
duration minus its children's, so a flamegraph renderer can stack the
frames without double-counting).  The folded log feeds ``flamegraph.pl``
or speedscope directly and complements the Chrome trace: the trace shows
*when* each phase ran, the flamegraph shows *where* the time went in
aggregate.

Self times are wall-clock telemetry: two runs of one workload fold the
same paths with different values.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from .span import span_paths

__all__ = ["collapsed_stacks", "write_flamegraph", "FLAMEGRAPH_FILENAME"]

#: default artifact name inside a trace session directory
FLAMEGRAPH_FILENAME = "flame.folded"


def collapsed_stacks(tracer) -> List[str]:
    """Folded-format lines for ``tracer``'s whole run, sorted by path."""
    records = tracer.records
    paths = span_paths(records)
    child_us: Dict[int, int] = {}
    for record in records:
        if record.parent_id is not None:
            child_us[record.parent_id] = (
                child_us.get(record.parent_id, 0) + record.duration_us
            )
    folded: Dict[str, int] = {}
    for record in records:
        self_us = max(record.duration_us - child_us.get(record.span_id, 0), 0)
        path = paths[record.span_id].replace("/", ";")
        folded[path] = folded.get(path, 0) + self_us
    return [f"{path} {value}" for path, value in sorted(folded.items())]


def write_flamegraph(tracer, path) -> Path:
    """Write :func:`collapsed_stacks` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = collapsed_stacks(tracer)
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path
