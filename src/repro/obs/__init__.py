"""``repro.obs`` — tracing and phase-breakdown profiling.

A deterministic-safe instrumentation layer over the planner, the
accelerator simulator, and the serving pipeline (see
``docs/observability.md``):

* **Spans** (:mod:`repro.obs.span` / :mod:`repro.obs.tracer`) — nested,
  per-thread phases with identifying attributes (snapshot index,
  ``alpha``/``Ps``/``Pv``, plan decision) and *deterministic counters*
  (cycles, bytes, MACs) kept strictly apart from wall-clock telemetry.
* **Exporters** (:mod:`repro.obs.export`) — Chrome trace-event JSON
  (Perfetto / ``chrome://tracing``) and a JSONL span log, with a
  dependency-free schema validator.
* **Phase report** (:mod:`repro.obs.report`) — time and counters per
  phase with %-of-parent, mirroring the paper's Fig. 7-9 decomposition.

With no tracer installed every instrumented call site is a no-op behind
one global ``None`` check — bench counters are bit-identical with
tracing on or off.  Serving numbers (queue depth, plan-cache hit rate,
retries) are not copied into a trace: they live in
:class:`~repro.serving.stats.ServiceStats`.
"""

from .export import (
    chrome_trace_events,
    validate_trace_events,
    validate_trace_file,
    write_chrome_trace,
    write_span_jsonl,
)
from .flamegraph import collapsed_stacks, write_flamegraph
from .report import PhaseNode, PhaseReport, build_phase_report
from .session import TraceSession, export_all
from .slo import SLOMonitor, SLOReport, SLOTarget, default_targets
from .span import NOOP_SPAN, NoopSpan, Span, SpanRecord
from .tracer import (
    Tracer,
    active_tracer,
    install,
    span,
    tracing,
    tracing_enabled,
    uninstall,
)

__all__ = [
    "Span",
    "SpanRecord",
    "NoopSpan",
    "NOOP_SPAN",
    "Tracer",
    "active_tracer",
    "tracing_enabled",
    "install",
    "uninstall",
    "tracing",
    "span",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_span_jsonl",
    "validate_trace_events",
    "validate_trace_file",
    "PhaseNode",
    "PhaseReport",
    "build_phase_report",
    "TraceSession",
    "export_all",
    "collapsed_stacks",
    "write_flamegraph",
    "SLOTarget",
    "SLOMonitor",
    "SLOReport",
    "default_targets",
]
