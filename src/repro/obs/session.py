"""Trace sessions: install a tracer, run a workload, export everything.

The CLI's ``--trace DIR`` flag (``plan``, ``compare``, ``serve``) and the
bench runner's per-case ``--trace DIR`` both go through
:class:`TraceSession`: it installs a fresh tracer for the duration of a
``with`` block and, on exit, writes

* ``trace.json`` — Chrome trace-event JSON (open in Perfetto),
* ``spans.jsonl`` — the raw span log, one JSON object per line,
* ``phases.json`` — the aggregated phase-breakdown report,
* ``flame.folded`` — the collapsed-stack flamegraph log,

then validates the trace-event file against the schema so a broken
export fails the run rather than producing an unloadable artifact.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from .export import validate_trace_file, write_chrome_trace, write_span_jsonl
from .flamegraph import FLAMEGRAPH_FILENAME, write_flamegraph
from .report import PhaseReport, build_phase_report
from .tracer import Tracer, install, uninstall

__all__ = ["TraceSession", "export_all"]

#: filenames a session writes into its output directory
TRACE_FILENAME = "trace.json"
SPANS_FILENAME = "spans.jsonl"
PHASES_FILENAME = "phases.json"


def export_all(
    tracer: Tracer,
    out_dir: Union[str, Path],
    stem: Optional[str] = None,
) -> Dict[str, Path]:
    """Write trace + span log + phase report for ``tracer`` into ``out_dir``.

    ``stem`` prefixes the filenames (``<stem>.trace.json`` ...), which the
    bench runner uses to keep one trace per case in a single directory.
    Raises ``ValueError`` if the written trace fails schema validation.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = f"{stem}." if stem else ""
    report = build_phase_report(tracer)
    written = {
        "trace": write_chrome_trace(tracer, out_dir / f"{prefix}{TRACE_FILENAME}"),
        "spans": write_span_jsonl(tracer, out_dir / f"{prefix}{SPANS_FILENAME}"),
        "flame": write_flamegraph(
            tracer, out_dir / f"{prefix}{FLAMEGRAPH_FILENAME}"
        ),
    }
    phases = out_dir / f"{prefix}{PHASES_FILENAME}"
    phases.write_text(report.render_json())
    written["phases"] = phases
    errors = validate_trace_file(written["trace"])
    if errors:
        raise ValueError(
            f"exported trace {written['trace']} failed schema validation: "
            + "; ".join(errors)
        )
    return written


class TraceSession:
    """Context manager: trace a block of work and export on exit.

    ::

        with TraceSession("traces") as session:
            runner.compare("pubmed")
        print(session.report.render_text())

    Exports are skipped when the block raises, so a failing workload does
    not leave a half-written trace behind.
    """

    def __init__(
        self,
        out_dir: Optional[Union[str, Path]] = None,
        name: str = "repro",
        stem: Optional[str] = None,
    ):
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.stem = stem
        self.tracer = Tracer(name)
        self.report: Optional[PhaseReport] = None
        self.written: Dict[str, Path] = {}

    def __enter__(self) -> "TraceSession":
        install(self.tracer)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        uninstall()
        if exc_type is None:
            self.report = build_phase_report(self.tracer)
            if self.out_dir is not None:
                self.written = export_all(self.tracer, self.out_dir, self.stem)
        return False
