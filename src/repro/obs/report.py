"""Phase-breakdown report: where time and deterministic counters went.

Aggregates finished spans by ancestry path (``simulate/snapshot/compute``)
into a tree of phases, each carrying

* ``count`` — how many spans landed in the phase,
* ``total_us`` — summed wall time (telemetry),
* ``counters`` — summed deterministic counters (cycles, bytes, MACs).

The text renderer prints the tree sorted by time within each parent with
a ``%parent`` column — the Fig. 7-9 style decomposition for an arbitrary
run.  Counter sums are exact: the attribution tests assert they reconcile
with :class:`~repro.accel.metrics.SimulationResult` totals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .span import SpanRecord, span_paths
from .tracer import Tracer

__all__ = ["PhaseNode", "PhaseReport", "build_phase_report"]


@dataclass
class PhaseNode:
    """Aggregate of every span that shares one ancestry path."""

    name: str
    path: str
    count: int = 0
    total_us: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    children: List["PhaseNode"] = field(default_factory=list)

    def absorb(self, record: SpanRecord) -> None:
        """Fold one span into this phase."""
        self.count += 1
        self.total_us += record.duration_us
        for counter, value in sorted(record.counters.items()):
            self.counters[counter] = self.counters.get(counter, 0.0) + value

    def child(self, name: str) -> "PhaseNode":
        """The named child phase (created on first use)."""
        for node in self.children:
            if node.name == name:
                return node
        path = name if not self.path else f"{self.path}/{name}"
        node = PhaseNode(name=name, path=path)
        self.children.append(node)
        return node

    def as_dict(self) -> Dict[str, object]:
        """JSON representation, children sorted by name: a row order that
        is stable across runs (wall times vary, names do not)."""
        return {
            "name": self.name,
            "path": self.path,
            "count": self.count,
            "total_us": self.total_us,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "children": [
                c.as_dict() for c in sorted(self.children, key=lambda n: n.name)
            ],
        }


@dataclass
class PhaseReport:
    """The aggregated phase tree of one traced run."""

    root: PhaseNode

    def phase(self, path: str) -> Optional[PhaseNode]:
        """Look a phase up by its ``a/b/c`` path (``None`` if absent)."""
        node = self.root
        if not path:
            return node
        for part in path.split("/"):
            found = None
            for child in node.children:
                if child.name == part:
                    found = child
                    break
            if found is None:
                return None
            node = found
        return node

    def counter_total(self, path: str, counter: str) -> float:
        """A phase's summed counter (0.0 when the phase is absent)."""
        node = self.phase(path)
        if node is None:
            return 0.0
        return node.counters.get(counter, 0.0)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """The human-readable phase table (the ``--trace DIR`` output),
        siblings ordered by descending wall time (the profiling view)."""

        def key(node: PhaseNode):
            return (-node.total_us, node.name)

        lines = [
            f"{'phase':<44} {'count':>6} {'time_ms':>10} {'%parent':>8}  counters"
        ]

        def fmt_counters(counters: Dict[str, float]) -> str:
            return "  ".join(
                f"{name}={counters[name]:.6g}" for name in sorted(counters)
            )

        def walk(node: PhaseNode, parent_us: Optional[int], indent: int) -> None:
            share = (
                f"{100.0 * node.total_us / parent_us:.1f}%"
                if parent_us
                else "-"
            )
            label = ("  " * indent) + node.name
            lines.append(
                f"{label:<44} {node.count:>6} {node.total_us / 1e3:>10.3f} "
                f"{share:>8}  {fmt_counters(node.counters)}"
            )
            for child in sorted(node.children, key=key):
                walk(child, node.total_us, indent + 1)

        for top in sorted(self.root.children, key=key):
            walk(top, None, 0)
        return "\n".join(lines)

    def render_json(self) -> str:
        """The machine-readable report (name-sorted rows, so two reports
        of the same workload have rows in the same order)."""
        return json.dumps({"phases": self.root.as_dict()}, indent=1)


def build_phase_report(tracer: Tracer) -> PhaseReport:
    """Aggregate a tracer's finished spans into a :class:`PhaseReport`."""
    records = tracer.records
    paths = span_paths(records)
    root = PhaseNode(name="", path="")
    for record in records:
        node = root
        for part in paths[record.span_id].split("/"):
            node = node.child(part)
        node.absorb(record)
    return PhaseReport(root=root)
