"""Correctness gates every benchmark run applies to every serve.

* **Offline parity**: the first windows of each serve must equal
  ``serve_offline`` on a window-aligned prefix of the same stream, field by
  field (cycle breakdown, MACs, DRAM bytes, NoC byte-hops, energy, plan
  decision).  The full offline oracle costs more than a serve, so a prefix
  of :data:`PREFIX_WINDOWS` windows is checked against it, and every serve
  of a run must then agree with the run's first serve on every window.
* **Accounting**: events offered == events in served windows + late +
  quarantined; windows served == the stream's window count; none failed.
* **Pacing** (paced workloads): the source released every event,
  ``serve()`` did not return before the schedule ended, and input lag did
  not keep growing (which would mean the rate is above capacity).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .layers import LayerTracer
from .pacing import Pacer, lag_growth

__all__ = [
    "PREFIX_WINDOWS",
    "accounting_problems",
    "fingerprints",
    "offline_prefix",
    "pacing_problems",
    "parity_problems",
]

PREFIX_WINDOWS = 16

Fingerprint = Tuple


def fingerprints(results, decisions: Sequence[str]) -> List[Fingerprint]:
    """The compared fields of each window's result, in window order."""
    return [
        (
            r.cycles.compute,
            r.cycles.on_chip,
            r.cycles.off_chip,
            r.cycles.overhead,
            r.cycles.total,
            r.total_macs,
            r.dram_bytes,
            r.noc_byte_hops,
            r.energy_joules,
            decision,
        )
        for r, decision in zip(results, decisions)
    ]


def offline_prefix(workload, inputs, windows: int = PREFIX_WINDOWS) -> List[Fingerprint]:
    """Fingerprints of ``serve_offline`` on the stream's first ``windows``
    windows (the whole stream if it is shorter)."""
    from repro.ditile import DiTileAccelerator
    from repro.graphs.continuous import ContinuousDynamicGraph
    from repro.serving import serve_offline

    from .workloads import service_config

    events = [
        e
        for e, w in zip(inputs.stream.events, inputs.window_of_event)
        if w < windows
    ]
    prefix = ContinuousDynamicGraph(
        inputs.stream.initial, events, name=inputs.stream.name
    )
    config = service_config(workload, None)
    # The offline path reports no plan decisions; the tracer's resolve
    # spans record them (resolution is sequential, so in window order).
    tracer = LayerTracer()
    with tracer.active():
        results = serve_offline(prefix, inputs.spec, DiTileAccelerator(), config)
    decisions = [
        s.attrs["decision"] for s in tracer.spans if s.name == "plan.resolve"
    ]
    return fingerprints(results, decisions)


def parity_problems(
    served: Sequence[Fingerprint], reference: Sequence[Fingerprint]
) -> List[int]:
    """Windows (positions) where ``served`` differs from ``reference`` over
    the reference's length; windows missing from ``served`` count too."""
    return [
        i for i, ref in enumerate(reference) if i >= len(served) or served[i] != ref
    ]


def accounting_problems(report, offered: int, expected_windows: int) -> List[str]:
    """Reconciliation failures of one serve's stats against its input."""
    stats = report.stats
    problems = []
    in_windows = sum(r.num_events for r in stats.records)
    if offered != in_windows + stats.late_events + stats.quarantined_events:
        problems.append(
            f"events offered {offered} != served {in_windows} + late "
            f"{stats.late_events} + quarantined {stats.quarantined_events}"
        )
    if stats.events != offered:
        problems.append(f"service ingested {stats.events} of {offered} offered events")
    if not (stats.windows == len(report.results) == expected_windows):
        problems.append(
            f"windows served {stats.windows} (results {len(report.results)}) "
            f"!= stream windows {expected_windows}"
        )
    if stats.windows_failed:
        problems.append(f"{stats.windows_failed} windows failed")
    return problems


def pacing_problems(pacer: Pacer, total: int, returned_at: float, period: float) -> List[str]:
    """Pacing-guard failures of one paced serve.

    ``period`` is the schedule's release interval: lag that grows by more
    than one interval between the first and last quarter of the run is a
    backlog, not jitter.
    """
    problems = []
    if pacer.released != total:
        problems.append(f"paced source released {pacer.released} of {total} events")
    if returned_at < pacer.schedule_end:
        problems.append(
            f"serve() returned {pacer.schedule_end - returned_at:.3f} s "
            "before the release schedule ended"
        )
    growth = lag_growth(pacer.lags())
    if growth > period:
        problems.append(
            f"input lag grew by {1e3 * growth:.1f} ms over the run "
            f"(> one {1e3 * period:.0f} ms release interval): rate above capacity"
        )
    return problems
