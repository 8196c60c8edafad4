"""Unit tests for the repro.obs tracing/metrics/export/report stack."""

import json
import re
import threading
from dataclasses import replace

import pytest

from repro.core.plan import DGNNSpec
from repro.obs import (
    NOOP_SPAN,
    MetricsRegistry,
    SLOMonitor,
    SLOTarget,
    Tracer,
    active_tracer,
    build_phase_report,
    chrome_trace_events,
    collapsed_stacks,
    counter_add,
    default_targets,
    gauge_set,
    install,
    span,
    tracing,
    tracing_enabled,
    uninstall,
    validate_trace_events,
    validate_trace_file,
    write_chrome_trace,
    write_flamegraph,
    write_span_jsonl,
)
from repro.obs.session import TraceSession, export_all
from repro.obs.span import span_paths
from repro.serving import (
    ServiceConfig,
    StreamingService,
    serve_offline,
    synthetic_event_stream,
)
from repro.serving.stats import ServiceStats

SPEC = DGNNSpec(gcn_dims=(8, 8), rnn_hidden_dim=8)


@pytest.fixture(scope="module")
def stream():
    return synthetic_event_stream(num_vertices=64, num_events=1500, seed=3)


@pytest.fixture(scope="module")
def service_config(stream):
    first, last = stream.time_span
    return ServiceConfig(window=(last - first) / 10, workers=2)


def _traced_serve(stream, config):
    with TraceSession() as session:
        report = StreamingService(config=config).serve(stream, SPEC)
    return session, report


@pytest.fixture(scope="module")
def traced_serve(stream, service_config):
    """One traced, pipelined serve shared by the read-only assertions."""
    return _traced_serve(stream, service_config)


class TestGlobalSwitch:
    def test_disabled_by_default(self):
        assert active_tracer() is None
        assert not tracing_enabled()

    def test_span_returns_shared_noop_when_off(self):
        assert span("anything", attr=1) is NOOP_SPAN
        assert not NOOP_SPAN.enabled

    def test_noop_span_absorbs_everything(self):
        with span("phase") as sp:
            sp.set_attr("k", "v")
            sp.add("cycles", 10.0)
        assert sp is NOOP_SPAN

    def test_counter_and_gauge_are_noops_when_off(self):
        counter_add("c", 1.0)  # must not raise
        gauge_set("g", 2.0)

    def test_install_uninstall_roundtrip(self):
        tracer = install(Tracer("t"))
        try:
            assert tracing_enabled()
            assert active_tracer() is tracer
        finally:
            assert uninstall() is tracer
        assert not tracing_enabled()

    def test_double_install_rejected(self):
        install(Tracer("first"))
        try:
            with pytest.raises(RuntimeError, match="already installed"):
                install(Tracer("second"))
        finally:
            uninstall()

    def test_tracing_context_manager_uninstalls_on_error(self):
        with pytest.raises(ValueError):
            with tracing():
                raise ValueError("boom")
        assert not tracing_enabled()


class TestSpans:
    def test_nesting_and_parenting(self):
        with tracing() as tracer:
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
        records = tracer.records
        assert [r.name for r in records] == ["outer", "inner", "inner"]
        outer = tracer.find("outer")[0]
        for inner in tracer.find("inner"):
            assert inner.parent_id == outer.span_id
            assert inner.depth == 1
        assert outer.parent_id is None and outer.depth == 0

    def test_attrs_and_counters_accumulate(self):
        with tracing() as tracer:
            with span("phase", alpha=2, dataset="pubmed") as sp:
                sp.add("cycles", 5.0)
                sp.add("cycles", 7.0)
                sp.set_attr("Ps", 4)
        (rec,) = tracer.records
        assert rec.attrs == {"alpha": 2, "dataset": "pubmed", "Ps": 4}
        assert rec.counters == {"cycles": 12.0}

    def test_exception_marks_error_and_closes(self):
        with tracing() as tracer:
            with pytest.raises(RuntimeError):
                with span("failing"):
                    raise RuntimeError("x")
        (rec,) = tracer.records
        assert rec.attrs["error"] == "RuntimeError"

    def test_span_paths_ancestry(self):
        with tracing() as tracer:
            with span("a"):
                with span("b"):
                    with span("c"):
                        pass
        paths = span_paths(tracer.records)
        assert sorted(paths.values()) == ["a", "a/b", "a/b/c"]

    def test_threads_get_independent_stacks(self):
        with tracing() as tracer:
            barrier = threading.Barrier(2)

            def work(name):
                barrier.wait()
                with span(name):
                    pass

            threads = [
                threading.Thread(target=work, args=(f"t{i}",), name=f"w{i}")
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        records = tracer.records
        assert len(records) == 2
        # both spans are thread roots, on distinct stable thread indices
        assert all(r.parent_id is None for r in records)
        assert len({r.thread for r in records}) == 2

    def test_durations_are_nonnegative_and_monotonic(self):
        with tracing() as tracer:
            with span("outer"):
                with span("inner"):
                    pass
        outer = tracer.find("outer")[0]
        inner = tracer.find("inner")[0]
        assert inner.duration_us >= 0
        assert outer.duration_us >= inner.duration_us
        assert outer.start_us <= inner.start_us


class TestMetrics:
    def test_counter_totals_and_events(self):
        reg = MetricsRegistry()
        reg.counter("hits").add(1)
        reg.counter("hits").add(2)
        c = reg.as_dict()["counters"]["hits"]
        assert c == {"total": 3.0, "events": 2}

    def test_gauge_tracks_extremes_and_mean(self):
        reg = MetricsRegistry()
        for v in (3.0, 1.0, 2.0):
            reg.gauge("depth").set(v)
        g = reg.as_dict()["gauges"]["depth"]
        assert g["last"] == 2.0 and g["min"] == 1.0 and g["max"] == 3.0
        assert g["mean"] == 2.0

    def test_registry_helpers_route_to_active_tracer(self):
        with tracing() as tracer:
            counter_add("c", 2.0)
            gauge_set("g", 5.0)
        snap = tracer.metrics.as_dict()
        assert snap["counters"]["c"]["total"] == 2.0
        assert snap["gauges"]["g"]["last"] == 5.0


class TestExport:
    def _traced(self):
        with tracing() as tracer:
            with span("root", dataset="pubmed") as sp:
                sp.add("cycles", 3.0)
                with span("leaf"):
                    pass
        return tracer

    def test_chrome_trace_schema(self):
        payload = chrome_trace_events(self._traced())
        assert validate_trace_events(payload) == []
        kinds = {e["ph"] for e in payload["traceEvents"]}
        assert kinds == {"M", "X"}
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"root", "leaf"}
        root = next(e for e in complete if e["name"] == "root")
        assert root["args"]["dataset"] == "pubmed"
        assert root["args"]["counter.cycles"] == 3.0

    def test_validator_rejects_malformed_payloads(self):
        assert validate_trace_events([]) != []
        assert validate_trace_events({"traceEvents": "nope"}) != []
        bad_event = {"traceEvents": [{"ph": "Q", "name": 3}]}
        errors = validate_trace_events(bad_event)
        assert errors

    def test_file_roundtrip_and_jsonl(self, tmp_path):
        tracer = self._traced()
        trace_path = write_chrome_trace(tracer, tmp_path / "trace.json")
        assert validate_trace_file(trace_path) == []
        jsonl_path = write_span_jsonl(tracer, tmp_path / "spans.jsonl")
        lines = jsonl_path.read_text().strip().splitlines()
        assert len(lines) == 2
        names = {json.loads(line)["name"] for line in lines}
        assert names == {"root", "leaf"}


class TestPhaseReport:
    def test_aggregation_by_path_with_counters(self):
        with tracing() as tracer:
            for i in range(3):
                with span("simulate"):
                    with span("snapshot", index=i) as sp:
                        sp.add("cycles", 10.0)
        report = build_phase_report(tracer)
        sim = report.phase("simulate")
        snap = report.phase("simulate/snapshot")
        assert sim.count == 3 and snap.count == 3
        assert snap.counters == {"cycles": 30.0}
        assert report.counter_total("simulate/snapshot", "cycles") == 30.0
        assert report.counter_total("simulate/absent", "cycles") == 0.0

    def test_render_text_contains_percent_of_parent(self):
        with tracing() as tracer:
            with span("a"):
                with span("b"):
                    pass
        text = build_phase_report(tracer).render_text()
        assert "%parent" in text
        assert "a" in text and "b" in text

    def test_render_json_parses(self):
        with tracing() as tracer:
            with span("a") as sp:
                sp.add("x", 1.0)
            gauge_set("g", 4.0)
        payload = json.loads(build_phase_report(tracer).render_json())
        assert payload["phases"]["children"][0]["name"] == "a"
        assert payload["metrics"]["gauges"]["g"]["last"] == 4.0


class TestTraceSession:
    def test_exports_all_artifacts(self, tmp_path):
        with TraceSession(tmp_path) as session:
            with span("work"):
                pass
        assert session.report is not None
        assert sorted(session.written) == ["flame", "phases", "spans", "trace"]
        for path in session.written.values():
            assert path.exists()
        assert validate_trace_file(session.written["trace"]) == []

    def test_stem_prefixes_filenames(self, tmp_path):
        tracer = Tracer()
        install(tracer)
        try:
            with span("w"):
                pass
        finally:
            uninstall()
        written = export_all(tracer, tmp_path, stem="case_x")
        assert written["trace"].name == "case_x.trace.json"
        assert written["spans"].name == "case_x.spans.jsonl"
        assert written["phases"].name == "case_x.phases.json"

    def test_no_export_on_error(self, tmp_path):
        out = tmp_path / "traces"
        with pytest.raises(RuntimeError):
            with TraceSession(out):
                raise RuntimeError("boom")
        assert not tracing_enabled()
        assert not out.exists()

    def test_session_without_out_dir_builds_report_only(self):
        with TraceSession() as session:
            with span("w"):
                pass
        assert session.report is not None
        assert session.written == {}


class TestServeTrace:
    def test_trace_passes_schema_validation(self, traced_serve):
        session, _ = traced_serve
        assert validate_trace_events(chrome_trace_events(session.tracer)) == []

    def test_one_named_pid_track(self, traced_serve):
        session, _ = traced_serve
        events = chrome_trace_events(session.tracer)["traceEvents"]
        assert {e["pid"] for e in events if e["ph"] == "X"} == {0}
        assert [
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        ] == [session.tracer.name]

    def test_schema_version_is_2(self, traced_serve):
        session, _ = traced_serve
        other = chrome_trace_events(session.tracer)["otherData"]
        assert other["schema"] == 2
        assert other["spans"] == len(session.tracer.records)


class TestParityUnderTracing:
    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_traced_results_bit_identical_to_offline(
        self, stream, service_config, depth, workers
    ):
        config = replace(
            service_config, pipeline_depth=depth, workers=workers
        )
        _, traced = _traced_serve(stream, config)
        untraced = StreamingService(config=config).serve(stream, SPEC)
        assert traced.results == serve_offline(stream, SPEC, config=config)
        assert traced.results == untraced.results


class TestFlamegraph:
    def test_collapsed_stack_format(self, traced_serve):
        session, _ = traced_serve
        lines = collapsed_stacks(session.tracer)
        assert lines
        for line in lines:
            assert re.fullmatch(r"[^ ]+ \d+", line), line
        roots = {line.split(";")[0].split(" ")[0] for line in lines}
        assert "serve" in roots

    def test_write_flamegraph(self, traced_serve, tmp_path):
        session, _ = traced_serve
        path = write_flamegraph(session.tracer, tmp_path / "flame.folded")
        content = path.read_text()
        assert content.endswith("\n")
        assert content.splitlines() == collapsed_stacks(session.tracer)


class TestSchema2Validation:
    @staticmethod
    def _payload(events):
        return {"traceEvents": events}

    def test_multi_pid_without_process_name_is_an_error(self):
        events = [
            {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": 1},
            {"name": "b", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 1},
        ]
        errors = validate_trace_events(self._payload(events))
        assert any("pid 0" in e for e in errors)
        assert any("pid 1" in e for e in errors)

    def test_multi_pid_with_process_names_is_valid(self):
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"p{pid}"},
            }
            for pid in (0, 1)
        ] + [
            {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": 1},
            {"name": "b", "ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 1},
        ]
        assert validate_trace_events(self._payload(events)) == []

    def test_single_pid_needs_no_process_name(self):
        events = [
            {"name": "a", "ph": "X", "pid": 5, "tid": 0, "ts": 0, "dur": 1}
        ]
        assert validate_trace_events(self._payload(events)) == []

    def test_metadata_event_name_is_checked(self):
        events = [
            {
                "name": "frobnicate",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "x"},
            }
        ]
        errors = validate_trace_events(self._payload(events))
        assert any("thread_name or process_name" in e for e in errors)

    def test_metadata_args_name_must_be_string(self):
        events = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": 7},
            }
        ]
        errors = validate_trace_events(self._payload(events))
        assert any("args.name" in e for e in errors)


class TestSLO:
    def test_target_ops(self):
        assert SLOTarget(metric="m", op="max", threshold=1.0).ok(0.5)
        assert not SLOTarget(metric="m", op="max", threshold=1.0).ok(1.5)
        assert SLOTarget(metric="m", op="min", threshold=0.5).ok(0.7)
        assert not SLOTarget(metric="m", op="min", threshold=0.5).ok(0.2)

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            SLOTarget(metric="m", op="between", threshold=1.0)

    def test_unknown_metric_raises(self):
        monitor = SLOMonitor([SLOTarget(metric="nope", op="max", threshold=1)])
        with pytest.raises(KeyError):
            monitor.evaluate(ServiceStats())

    def test_healthy_run(self, traced_serve):
        _, report = traced_serve
        slo = SLOMonitor().evaluate(report.stats)
        assert slo.healthy
        assert slo.exit_code == 0
        assert slo.violations == []
        assert "SLO OK" in slo.render_text()

    def test_violation_flips_exit_code_and_window_records(self, traced_serve):
        _, report = traced_serve
        monitor = SLOMonitor(default_targets(p95_latency_s=1e-9))
        slo = monitor.evaluate(report.stats)
        assert not slo.healthy
        assert slo.exit_code == 1
        assert all(r.window is None for r in slo.violations)
        breached = [r for r in slo.window_records if not r.ok]
        assert breached and all(r.window is not None for r in breached)
        assert "SLO VIOLATED" in slo.render_text()
        payload = json.loads(slo.render_json())
        assert payload["healthy"] is False
        assert payload["windows"]  # per-window breaches are listed

    def test_restart_budget_defaults_for_single_process_stats(self):
        # The restart budget counts durable resumes; a run that never
        # resumed uses none of it.
        slo = SLOMonitor().evaluate(ServiceStats())
        observed = {r.metric: r.observed for r in slo.run_records}
        assert observed["restarts"] == 0.0

    def test_report_roundtrip(self, traced_serve):
        _, report = traced_serve
        slo = SLOMonitor().evaluate(report.stats)
        payload = json.loads(slo.render_json())
        assert payload["healthy"] is True
        assert {t["metric"] for t in payload["targets"]} == {
            "p95_latency_s",
            "restarts",
            "overlap_ratio",
        }


class TestEmptyRunStats:
    """Regression tests: an empty run must report, not divide by zero."""

    def test_summary_on_empty_run(self):
        stats = ServiceStats()
        text = stats.summary()
        assert "windows served     0" in text
        assert "p95=0.00 ms" in text

    def test_as_dict_on_empty_run_is_all_finite(self):
        stats = ServiceStats()
        derived = [
            name
            for name, attr in vars(ServiceStats).items()
            if isinstance(attr, property) and name != "latencies"
        ]
        assert "overlap_ratio" in derived and "plan_hit_rate" in derived
        for name in derived:
            value = getattr(stats, name)
            assert value == value and abs(value) != float("inf"), name
        assert stats.p95_latency_s == 0.0
        assert stats.overlap_ratio == 0.0
