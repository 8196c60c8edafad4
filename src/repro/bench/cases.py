"""The standard benchmark case catalog.

Wraps the repo's existing scenarios as registered cases:

* ``planner/*`` — the DiTile scheduler stages (Algorithm 1 tiling,
  ``Ps``/``Pv`` parallelism search, Algorithm 2 balance placement);
* ``models/*`` / ``graphs/*`` — the planner's two measured hot paths
  (Eq. 17 vertex-workload estimation, snapshot edge-delta measurement);
* ``simulator/*`` — the Fig. 7-9 cost models: all five accelerators
  simulated on one Table 1 dataset (cycles, DRAM bytes, NoC byte-hops,
  MACs, energy);
* ``serving/*`` — the online streaming service (window counts,
  plan-cache hit/miss/eviction counters, modeled cycles, plus
  elapsed/latency timings).

Every case fixes its seeds and scales, so its counters are pure
functions of the code — which is what lets CI gate them at exact
equality.  Dataset synthesis is cached process-wide by the experiment
runner, so the first (warmup) execution pays it and timed repeats
measure only the scenario itself.
"""

from __future__ import annotations

from typing import Dict

from ..accel.metrics import SimulationResult
from ..baselines.algorithms import measure_quantities
from ..core.comm_model import WorkloadProfile
from ..core.parallelism import ParallelismOptimizer
from ..core.plan import DGNNSpec
from ..core.tiling import subgraph_tiling
from ..experiments.runner import ExperimentConfig, ExperimentRunner
from ..models.workload import dynamic_vertex_workload
from .registry import BenchRegistry, CaseOutput

__all__ = ["register_all"]

#: the smallest Table 1 graph — the smoke suite's standard workload
SMOKE_DATASET = "pubmed"
#: datasets the nightly ``full`` suite sweeps the simulator over
FULL_DATASETS = ("pubmed", "wikipedia", "twitter", "reddit", "mobile", "flicker")

_ABBREV = {
    "pubmed": "pm",
    "wikipedia": "wd",
    "twitter": "tw",
    "reddit": "rd",
    "mobile": "mb",
    "flicker": "fk",
}


def _runner() -> ExperimentRunner:
    """A fresh experiment runner on the default reproduction config."""
    return ExperimentRunner(ExperimentConfig())


def _result_counters(name: str, result: SimulationResult) -> Dict[str, float]:
    """The deterministic per-accelerator metrics of one simulation."""
    return {
        f"{name}.execution_cycles": result.execution_cycles,
        f"{name}.dram_bytes": result.dram_bytes,
        f"{name}.noc_byte_hops": result.noc_byte_hops,
        f"{name}.total_macs": result.total_macs,
        f"{name}.energy_joules": result.energy_joules,
    }


# ---------------------------------------------------------------------------
# Planner cases
# ---------------------------------------------------------------------------
def planner_tiling(dataset: str) -> CaseOutput:
    """Algorithm 1's subgraph-tiling search on one dataset."""
    runner = _runner()
    graph = runner.graph(dataset)
    spec = runner.spec(dataset)
    tiling = subgraph_tiling(
        graph.stats(),
        float(runner.hardware.distributed_buffer_bytes),
        feature_dim=spec.feature_dim,
        output_dim=spec.embedding_dim,
    )
    return CaseOutput(
        counters={
            "alpha": float(tiling.alpha),
            "dram_access_rows": tiling.dram_access,
            "data_volume_bytes": tiling.data_volume_bytes,
        }
    )


def planner_parallelism(dataset: str) -> CaseOutput:
    """Algorithm 1's ``Ps``/``Pv`` grid search (Eq. 7 communication)."""
    runner = _runner()
    graph = runner.graph(dataset)
    spec = runner.spec(dataset)
    tiling = subgraph_tiling(
        graph.stats(),
        float(runner.hardware.distributed_buffer_bytes),
        feature_dim=spec.feature_dim,
        output_dim=spec.embedding_dim,
    )
    profile = WorkloadProfile.from_graph(
        graph, spec.num_gnn_layers, alpha=tiling.alpha
    )
    strategy = ParallelismOptimizer(profile, runner.hardware.total_tiles).optimize()
    return CaseOutput(
        counters={
            "snapshot_groups": float(strategy.factors.snapshot_groups),
            "vertex_groups": float(strategy.factors.vertex_groups),
            "temporal_comm_rows": strategy.breakdown.temporal,
            "rf_spatial_comm_rows": strategy.breakdown.rf_spatial,
            "reuse_comm_rows": strategy.breakdown.reuse,
            "total_comm_rows": strategy.total_comm,
        }
    )


def planner_placement(dataset: str) -> CaseOutput:
    """The full scheduler pipeline: tiling + parallelism + Algorithm 2."""
    runner = _runner()
    graph = runner.graph(dataset)
    spec = runner.spec(dataset)
    plan = runner.ditile().plan(graph, spec)
    return CaseOutput(
        counters={
            "alpha": float(plan.tiling.alpha),
            "snapshot_groups": float(plan.factors.snapshot_groups),
            "vertex_groups": float(plan.factors.vertex_groups),
            "utilization": plan.workload.utilization,
            "imbalance": plan.workload.imbalance,
            "total_comm_rows": plan.comm.total,
        }
    )


# ---------------------------------------------------------------------------
# Hot-path cases
# ---------------------------------------------------------------------------
def workload_estimation(dataset: str) -> CaseOutput:
    """Eq. 17 per-vertex workload estimation over every snapshot."""
    runner = _runner()
    graph = runner.graph(dataset)
    spec = runner.spec(dataset)
    vload = dynamic_vertex_workload(graph, spec.num_gnn_layers)
    return CaseOutput(
        counters={
            "vertices": float(len(vload)),
            "vload_total": float(vload.sum()),
            "vload_max": float(vload.max()),
        }
    )


def snapshot_delta_measurement(dataset: str) -> CaseOutput:
    """Exact edge-delta measurement across all snapshot transitions."""
    runner = _runner()
    graph = runner.graph(dataset)
    quantities = measure_quantities(graph)
    added = float(sum(q.added_edges for q in quantities[1:]))
    removed = float(sum(q.removed_edges for q in quantities[1:]))
    dis_sum = sum(q.dissimilarity for q in quantities[1:])
    transitions = max(len(quantities) - 1, 1)
    return CaseOutput(
        counters={
            "snapshots": float(len(quantities)),
            "added_edges": added,
            "removed_edges": removed,
            "mean_dissimilarity": dis_sum / transitions,
        }
    )


# ---------------------------------------------------------------------------
# Simulator cases
# ---------------------------------------------------------------------------
def simulator_compare(dataset: str) -> CaseOutput:
    """All five accelerators (four baselines + DiTile) on one dataset.

    Covers the Fig. 7 (MACs), Fig. 8 (DRAM), and Fig. 9 (cycles)
    deterministic metrics in one pass.
    """
    runner = _runner()
    results = runner.compare(dataset)
    counters: Dict[str, float] = {}
    for name in sorted(results):
        counters.update(_result_counters(name, results[name]))
    return CaseOutput(counters=counters)


# ---------------------------------------------------------------------------
# Serving case
# ---------------------------------------------------------------------------
def serving_throughput(
    num_events: int, num_vertices: int, num_windows: int, workers: int
) -> CaseOutput:
    """The online streaming service over a synthetic power-law stream.

    Deterministic counters cover the served-window accounting and the
    plan cache (resolution is sequential in window order by design, so
    hit/miss/eviction counts do not depend on worker timing);
    elapsed time and latency land in the timing class, in seconds like
    every timing (events/s is ``events / elapsed_s``).
    """
    from ..ditile import DiTileAccelerator
    from ..serving import ServiceConfig, StreamingService, synthetic_event_stream

    stream = synthetic_event_stream(
        num_vertices=num_vertices, num_events=num_events, seed=7
    )
    first, last = stream.time_span
    config = ServiceConfig(
        window=(last - first) / num_windows,
        workers=workers,
        max_batch_windows=4,
        queue_capacity=8,
    )
    spec = DGNNSpec.classic(64)
    report = StreamingService(DiTileAccelerator(), config).serve(stream, spec)
    stats = report.stats
    return CaseOutput(
        counters={
            "windows": float(stats.windows),
            "events": float(stats.events),
            "late_events": float(stats.late_events),
            "plan_hits": float(stats.plan_hits),
            "plan_misses": float(stats.plan_misses),
            "plan_evictions": float(stats.plan_evictions),
            "plan_cache_size": float(stats.plan_cache_size),
            "total_cycles": report.total_cycles,
        },
        timings={
            "elapsed_s": stats.elapsed_s,
            "p50_latency_s": stats.p50_latency_s,
            "p95_latency_s": stats.p95_latency_s,
        },
    )


def serving_pipeline(
    num_events: int,
    num_vertices: int,
    num_windows: int,
    workers: int,
    pipeline_depth: int,
) -> CaseOutput:
    """The overlapped window pipeline at an explicit depth.

    Counters must equal the ``serving/throughput`` analogue on the same
    stream parameters at any depth — the bench gate is a standing
    replay of the pipeline-parity guarantee (``profile_reuses`` is also
    deterministic: it counts empty-delta windows, a property of the
    stream discretization, not of timing).  The pipeline-specific
    timings expose how much execution the overlap hides:
    ``collect_stall_s`` (execution time left on the critical path)
    should sit well below ``execute_s`` (the serialized stage time).
    """
    from ..ditile import DiTileAccelerator
    from ..serving import ServiceConfig, StreamingService, synthetic_event_stream

    stream = synthetic_event_stream(
        num_vertices=num_vertices, num_events=num_events, seed=7
    )
    first, last = stream.time_span
    config = ServiceConfig(
        window=(last - first) / num_windows,
        workers=workers,
        max_batch_windows=4,
        pipeline_depth=pipeline_depth,
        queue_capacity=8,
    )
    spec = DGNNSpec.classic(64)
    report = StreamingService(DiTileAccelerator(), config).serve(stream, spec)
    stats = report.stats
    return CaseOutput(
        counters={
            "windows": float(stats.windows),
            "events": float(stats.events),
            "late_events": float(stats.late_events),
            "plan_hits": float(stats.plan_hits),
            "plan_misses": float(stats.plan_misses),
            "plan_evictions": float(stats.plan_evictions),
            "plan_cache_size": float(stats.plan_cache_size),
            "total_cycles": report.total_cycles,
            "pipeline_depth": float(stats.pipeline_depth),
            "profile_reuses": float(stats.profile_reuses),
        },
        timings={
            "elapsed_s": stats.elapsed_s,
            "p50_latency_s": stats.p50_latency_s,
            "p95_latency_s": stats.p95_latency_s,
            "execute_s": stats.execute_s,
            "prefetch_stall_s": stats.prefetch_stall_s,
            "collect_stall_s": stats.collect_stall_s,
        },
    )


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------
def register_all(registry: BenchRegistry) -> None:
    """Install the standard catalog into ``registry``."""

    def per_dataset(area_name, fn, datasets, smoke_dataset, description):
        for dataset in datasets:
            tag = _ABBREV[dataset]
            suites = ("smoke", "full") if dataset == smoke_dataset else ("full",)
            registry.register(
                f"{area_name}[{tag}]",
                (lambda d=dataset: fn(d)),
                suites=suites,
                params={"dataset": dataset},
                description=description,
            )

    per_dataset(
        "planner/tiling", planner_tiling, (SMOKE_DATASET, "wikipedia"),
        SMOKE_DATASET, "Algorithm 1 subgraph-tiling search",
    )
    per_dataset(
        "planner/parallelism", planner_parallelism, (SMOKE_DATASET, "wikipedia"),
        SMOKE_DATASET, "Ps/Pv parallelization grid search (Eq. 7)",
    )
    per_dataset(
        "planner/placement", planner_placement, (SMOKE_DATASET, "wikipedia"),
        SMOKE_DATASET, "full scheduler pipeline incl. Algorithm 2 balance",
    )
    per_dataset(
        "models/vertex-workload", workload_estimation, (SMOKE_DATASET, "reddit"),
        SMOKE_DATASET, "Eq. 17 label-aggregation workload estimation",
    )
    per_dataset(
        "graphs/snapshot-delta", snapshot_delta_measurement,
        (SMOKE_DATASET, "wikipedia"),
        SMOKE_DATASET, "exact edge deltas across snapshot transitions",
    )
    per_dataset(
        "simulator/compare", simulator_compare, FULL_DATASETS,
        SMOKE_DATASET, "five-accelerator simulation (Figs. 7-9 metrics)",
    )

    registry.register(
        "serving/throughput[smoke]",
        lambda: serving_throughput(
            num_events=3_000, num_vertices=128, num_windows=16, workers=2
        ),
        suites=("smoke", "full"),
        params={
            "num_events": 3_000, "num_vertices": 128,
            "num_windows": 16, "workers": 2,
        },
        description="online streaming service, CI-sized stream",
    )
    registry.register(
        "serving/throughput[standard]",
        lambda: serving_throughput(
            num_events=12_000, num_vertices=256, num_windows=48, workers=2
        ),
        suites=("full",),
        params={
            "num_events": 12_000, "num_vertices": 256,
            "num_windows": 48, "workers": 2,
        },
        description="online streaming service, BENCH_serving.json stream",
    )
    registry.register(
        "serving/pipeline[smoke]",
        lambda: serving_pipeline(
            num_events=3_000, num_vertices=128, num_windows=16,
            workers=2, pipeline_depth=4,
        ),
        suites=("smoke", "full"),
        params={
            "num_events": 3_000, "num_vertices": 128, "num_windows": 16,
            "workers": 2, "pipeline_depth": 4,
        },
        description="overlapped window pipeline, depth 4 (parity + stall gate)",
    )
    registry.register(
        "serving/pipeline[standard]",
        lambda: serving_pipeline(
            num_events=12_000, num_vertices=256, num_windows=48,
            workers=2, pipeline_depth=4,
        ),
        suites=("full",),
        params={
            "num_events": 12_000, "num_vertices": 256, "num_windows": 48,
            "workers": 2, "pipeline_depth": 4,
        },
        description="overlapped window pipeline on the standard stream",
    )
