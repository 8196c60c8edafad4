"""Integration tests: instrumentation of planner / simulator / serving.

The two load-bearing guarantees:

* **Attribution** — the phase report's deterministic counter sums
  reconcile exactly with :class:`~repro.accel.metrics.SimulationResult`
  totals (nothing double-counted, nothing dropped);
* **Zero-cost-when-off** — running a bench case under the tracer leaves
  its deterministic counters bit-identical to an untraced run.
"""

import math

import pytest

from repro.bench import BenchRunner, default_registry
from repro.core.plan import DGNNSpec
from repro.ditile import DiTileAccelerator
from repro.graphs.continuous import ContinuousDynamicGraph
from repro.graphs.datasets import dataset_profile, load_dataset
from repro.obs import build_phase_report, tracing
from repro.serving.service import ServiceConfig, StreamingService

BENCH_CASE = "planner/tiling[pm]"


@pytest.fixture(scope="module")
def workload():
    graph = load_dataset("pubmed", scale=0.05, snapshots=3, seed=0)
    spec = DGNNSpec.classic(dataset_profile("pubmed").feature_dim, 128)
    return graph, spec


class TestPlannerSpans:
    def test_plan_phases_and_attrs(self, workload):
        graph, spec = workload
        model = DiTileAccelerator()
        with tracing() as tracer:
            plan = model.plan(graph, spec)
        names = {r.name for r in tracer.records}
        assert {"plan", "tiling", "parallelism", "balance", "redundancy"} <= names
        tiling = tracer.find("tiling")[0]
        assert tiling.attrs["alpha"] == plan.tiling.alpha
        parallelism = tracer.find("parallelism")[0]
        assert parallelism.attrs["Ps"] == plan.factors.snapshot_groups
        assert parallelism.attrs["Pv"] == plan.factors.vertex_groups
        assert parallelism.counters["total_comm_rows"] == pytest.approx(
            plan.comm.total
        )
        root = tracer.find("plan")[0]
        for stage in ("tiling", "parallelism", "balance", "redundancy"):
            assert tracer.find(stage)[0].parent_id == root.span_id


class TestSimulatorAttribution:
    def test_counters_reconcile_with_simulation_totals(self, workload):
        graph, spec = workload
        model = DiTileAccelerator()
        with tracing() as tracer:
            result = model.simulate(graph, spec)
        report = build_phase_report(tracer)

        def total(path, counter):
            return report.counter_total(path, counter)

        checks = {
            ("simulate/snapshot/compute", "cycles"): result.cycles.compute,
            ("simulate/snapshot/noc", "cycles"): result.cycles.on_chip,
            ("simulate/snapshot/dram", "cycles"): result.cycles.off_chip,
            ("simulate/snapshot/overhead", "cycles"): result.cycles.overhead,
            ("simulate/snapshot", "cycles"): result.cycles.total,
            ("simulate/snapshot/noc", "byte_hops"): result.noc_byte_hops,
            ("simulate/snapshot/dram", "bytes"): result.dram_bytes,
        }
        for (path, counter), expected in checks.items():
            assert math.isclose(
                total(path, counter), expected, rel_tol=1e-12, abs_tol=1e-9
            ), (path, counter)

    def test_noc_traffic_classes_sum_to_noc_bytes(self, workload):
        graph, spec = workload
        model = DiTileAccelerator()
        with tracing() as tracer:
            result = model.simulate(graph, spec)
        report = build_phase_report(tracer)
        classes = sum(
            report.counter_total("simulate/snapshot/noc", c)
            for c in ("temporal_bytes", "spatial_bytes", "reuse_bytes")
        )
        assert classes == pytest.approx(result.noc_bytes, rel=1e-12)

    def test_kernel_macs_sum_to_total_macs(self, workload):
        graph, spec = workload
        model = DiTileAccelerator()
        with tracing() as tracer:
            result = model.simulate(graph, spec)
        report = build_phase_report(tracer)
        macs = sum(
            report.counter_total(f"simulate/snapshot/compute/{k}", "macs")
            for k in ("aggregation", "combination", "rnn")
        )
        assert macs == pytest.approx(result.total_macs, rel=1e-12)

    def test_one_snapshot_span_per_snapshot(self, workload):
        graph, spec = workload
        with tracing() as tracer:
            DiTileAccelerator().simulate(graph, spec)
        assert len(tracer.find("snapshot")) == graph.num_snapshots


class TestServingSpans:
    @pytest.fixture(scope="class")
    def traced_serve(self):
        graph = load_dataset("pubmed", scale=0.05, snapshots=4, seed=0)
        stream = ContinuousDynamicGraph.from_snapshots(graph)
        spec = DGNNSpec.classic(dataset_profile("pubmed").feature_dim, 128)
        service = StreamingService(config=ServiceConfig(workers=2))
        with tracing() as tracer:
            report = service.serve(stream, spec)
        return tracer, report

    def test_window_lifecycle_phases(self, traced_serve):
        tracer, report = traced_serve
        names = {r.name for r in tracer.records}
        assert {"serve", "ingest", "window", "resolve", "execute"} <= names
        assert len(tracer.find("window")) == report.num_windows
        assert len(tracer.find("execute")) == report.num_windows

    def test_resolve_decisions_match_stats(self, traced_serve):
        tracer, report = traced_serve
        decisions = [r.attrs["decision"] for r in tracer.find("resolve")]
        assert decisions.count("hit") == report.stats.plan_hits
        assert decisions.count("miss") == report.stats.plan_misses
        assert len(decisions) == report.stats.plan_lookups == report.num_windows
        assert set(decisions) <= {"hit", "miss"}

    def test_execute_cycles_match_served_results(self, traced_serve):
        tracer, report = traced_serve
        traced = sum(r.counters["cycles"] for r in tracer.find("execute"))
        assert traced == pytest.approx(report.total_cycles, rel=1e-12)

    def test_phase_timings_populated(self, traced_serve):
        _, report = traced_serve
        assert report.stats.plan_resolve_s > 0
        assert report.stats.execute_s > 0


class TestZeroCostWhenOff:
    def test_traced_bench_counters_bit_identical(self, tmp_path):
        registry = default_registry()
        plain = BenchRunner(registry, repeats=1, warmup=0).run(
            names=[BENCH_CASE]
        )
        traced = BenchRunner(
            registry, repeats=1, warmup=0, trace_dir=tmp_path
        ).run(names=[BENCH_CASE])
        assert plain.cases[0].counters == traced.cases[0].counters
        # byte-identical, not merely approximately equal
        for name, value in plain.cases[0].counters.items():
            assert value.hex() == traced.cases[0].counters[name].hex()

    def test_bench_trace_artifacts_written(self, tmp_path):
        BenchRunner(
            default_registry(), repeats=1, warmup=0, trace_dir=tmp_path
        ).run(names=[BENCH_CASE])
        stems = {p.name for p in tmp_path.iterdir()}
        assert stems == {
            "planner_tiling_pm.trace.json",
            "planner_tiling_pm.spans.jsonl",
            "planner_tiling_pm.phases.json",
            "planner_tiling_pm.flame.folded",
        }

    def test_simulation_results_identical_with_and_without_tracing(
        self, workload
    ):
        graph, spec = workload
        plain = DiTileAccelerator().simulate(graph, spec)
        with tracing():
            traced = DiTileAccelerator().simulate(graph, spec)
        assert plain.cycles.as_dict() == traced.cycles.as_dict()
        assert plain.total_macs == traced.total_macs
        assert plain.dram_bytes == traced.dram_bytes
        assert plain.noc_byte_hops == traced.noc_byte_hops
