"""What the benchmark reports, in one place: ``BENCHMARK.json`` is generated
from these tables (``python3 perfbench/run.py --write-manifest``) and the
benchmark's tests check that the committed file matches them."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

from .layers import per_layer_table
from .workloads import WORKLOADS

__all__ = ["END_TO_END", "RUN_SECONDS", "manifest", "write_manifest"]

#: seconds of serving one run measures (whole serves, at least one)
RUN_SECONDS = 45

#: ``bound``: the share of the parent's median by which the metric may
#: worsen before a change counts as a regression
END_TO_END = [
    {"name": "events_per_s", "unit": "events/s", "better": "higher", "bound": 0.25},
    {"name": "window_latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.2},
]


def manifest() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer_table(),
    }


def write_manifest(path: Path) -> None:
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
