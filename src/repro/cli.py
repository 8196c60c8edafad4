"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print the Table 1 dataset registry.
``plan DATASET``
    Run the DiTile scheduler on a dataset and print its decisions.
``compare DATASET``
    Simulate DiTile plus all four baselines and print the comparison.
``reproduce [FIGURE ...]``
    Regenerate evaluation artifacts (default: all of Table 1 / Figs 7-14).
``serve [DATASET]``
    Run the online streaming-inference service over a dataset replay or a
    synthetic event stream and print the service statistics.  ``--wal
    DIR`` makes the run durable (write-ahead event log + checkpoints);
    ``--resume`` recovers a crashed run byte-identically.
``chaos {serve,sweep,recover}``
    Resilience tooling (see ``docs/resilience.md``): ``serve`` replays a
    stream under seeded fault injection (worker crashes, latency, poison
    events) and prints the service statistics; ``sweep`` produces the
    slowdown-vs-fault-rate curve comparing the reconfigurable ring+Re-Link
    NoC against a static mesh; ``recover`` SIGKILLs the serving process at
    window boundaries, resumes from the WAL, and byte-compares the results
    against an uninterrupted reference.  ``compare`` and ``serve``
    accept ``--faults SPEC`` to simulate a degraded array.
``slo [DATASET]``
    Serve a stream and evaluate declarative SLO targets (exit 1 on any
    violated objective).
``lint [PATH ...]``
    Run the repo's static-analysis suite (determinism, unit-safety,
    thread-safety — see ``docs/static-analysis.md``) over source paths.
``bench {run,compare,list}``
    The deterministic benchmark subsystem (see ``docs/benchmarks.md``):
    run a suite, compare a record against a committed baseline, or list
    the case catalog.
``area``
    Print the Fig. 14 area breakdown.

``plan``, ``compare`` and ``serve`` take ``--trace DIR``: the command runs
under the tracer (see ``docs/observability.md``), prints the phase
breakdown after its own output, and writes a Perfetto-loadable Chrome
trace, the raw span log, the phase report and a flamegraph log to DIR.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from .accel.config import HardwareConfig
from .experiments.figures import ALL_FIGURES, figure14
from .experiments.report import format_table
from .experiments.runner import BASELINE_ORDER, ExperimentConfig, ExperimentRunner
from .graphs.datasets import TABLE1_DATASETS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser.

    Every command sets ``handler``, which takes the parsed arguments and
    returns an exit code (``None`` means 0).
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DiTile-DGNN (ISCA 2025) reproduction toolkit",
    )
    parser.set_defaults(trace=None)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "datasets", help="list the Table 1 dataset registry"
    ).set_defaults(handler=_cmd_datasets)

    plan = sub.add_parser("plan", help="show the DiTile scheduler's plan")
    _add_workload_args(plan)
    _add_trace_arg(plan)
    plan.add_argument(
        "--explain", action="store_true",
        help="print the full decision trace (every grid shape's cost)",
    )
    plan.set_defaults(handler=_cmd_plan)

    compare = sub.add_parser("compare", help="simulate all five accelerators")
    _add_workload_args(compare)
    _add_trace_arg(compare)
    _add_faults_arg(compare)
    compare.set_defaults(handler=_cmd_compare)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate evaluation tables/figures"
    )
    reproduce.add_argument(
        "figures",
        nargs="*",
        choices=[[], *ALL_FIGURES.keys()],
        help="artifacts to regenerate (default: all)",
    )
    reproduce.add_argument("--scale", type=float, default=0.0625)
    reproduce.add_argument("--snapshots", type=int, default=None)
    reproduce.add_argument("--seed", type=int, default=7)
    reproduce.add_argument(
        "--out", default=None, metavar="DIR",
        help="also export results to DIR (CSV per figure + REPORT.md)",
    )
    reproduce.set_defaults(handler=_cmd_reproduce)

    serve = sub.add_parser(
        "serve", help="run the online streaming-inference service"
    )
    _add_stream_args(serve)
    _add_service_args(serve)
    _add_durability_args(serve)
    _add_slo_args(serve)
    _add_trace_arg(serve)
    _add_faults_arg(serve)
    serve.add_argument(
        "--results-json", default=None, metavar="OUT",
        help="write the deterministic per-window results and resilience "
        "counters (JSON) to OUT — byte-comparable across pipeline depths, "
        "worker counts and crash points (the CI pipeline-parity gate)",
    )
    serve.set_defaults(handler=_cmd_serve)

    chaos = sub.add_parser(
        "chaos", help="resilience tooling: chaos harness and fault sweeps"
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_serve = chaos_sub.add_parser(
        "serve", help="serve a stream under seeded fault injection"
    )
    _add_stream_args(chaos_serve)
    _add_service_args(chaos_serve)
    _add_durability_args(chaos_serve)
    _add_slo_args(chaos_serve)
    chaos_serve.add_argument(
        "--chaos-seed", type=int, default=11,
        help="chaos schedule seed (same seed -> byte-identical report)",
    )
    chaos_serve.add_argument(
        "--crash-rate", type=float, default=0.2,
        help="per-attempt worker-crash probability",
    )
    chaos_serve.add_argument(
        "--latency-rate", type=float, default=0.1,
        help="per-attempt injected-latency probability",
    )
    chaos_serve.add_argument(
        "--latency-s", type=float, default=0.002,
        help="injected latency duration in seconds",
    )
    chaos_serve.add_argument(
        "--poison-rate", type=float, default=0.02,
        help="per-event malformed-event injection probability",
    )
    chaos_serve.add_argument(
        "--max-attempts", type=int, default=4,
        help="retry budget per window (attempts, including the first)",
    )
    chaos_serve.add_argument(
        "--json", default=None, metavar="OUT",
        help="write the run's deterministic outcome (JSON: per-window "
        "results plus resilience counters, as serve --results-json) to OUT",
    )
    chaos_serve.set_defaults(handler=_cmd_chaos_serve)
    chaos_recover = chaos_sub.add_parser(
        "recover",
        help="kill-and-resume sweep: SIGKILL the serving process at "
        "window boundaries, resume from the WAL, byte-compare results",
    )
    # No durability flags: the sweep owns each kill point's WAL directory.
    _add_stream_args(chaos_recover)
    _add_service_args(chaos_recover)
    chaos_recover.add_argument(
        "--kill-points", default=None, metavar="K,K,...",
        help="comma-separated window boundaries to kill at "
        "(default: every boundary)",
    )
    chaos_recover.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="keep WAL/checkpoint artifacts of every kill point in DIR "
        "(failures always keep theirs)",
    )
    chaos_recover.add_argument(
        "--json", default=None, metavar="OUT",
        help="write the deterministic recovery report (JSON) to OUT",
    )
    chaos_recover.set_defaults(handler=_cmd_chaos_recover)
    chaos_sweep = chaos_sub.add_parser(
        "sweep", help="slowdown-vs-fault-rate curve: ring+Re-Link vs mesh"
    )
    _add_workload_args(chaos_sweep)
    chaos_sweep.add_argument(
        "--rates", default="0,0.02,0.05,0.1,0.2", metavar="R,R,...",
        help="comma-separated fault rates (default: 0,0.02,0.05,0.1,0.2)",
    )
    chaos_sweep.add_argument(
        "--fault-seed", type=int, default=11,
        help="fault-sampling seed (fault sets nest across rates)",
    )
    chaos_sweep.set_defaults(handler=_cmd_chaos_sweep)

    slo = sub.add_parser(
        "slo",
        help="serve a stream and evaluate declarative SLO targets "
        "(exit 1 on any violated objective)",
    )
    _add_stream_args(slo)
    _add_service_args(slo)
    _add_durability_args(slo)
    _add_slo_args(slo)
    slo.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    slo.set_defaults(handler=_cmd_slo)

    lint = sub.add_parser(
        "lint", help="run the static-analysis suite over source paths"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all rules)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    lint.add_argument(
        "--explain", default=None, metavar="RULE",
        help="print one rule's documentation and example, then exit",
    )
    lint.add_argument(
        "--no-unused-suppressions", action="store_true",
        help="do not report suppressions whose rules never fired (NOQA003)",
    )
    lint.add_argument(
        "--sarif-out", default=None, metavar="FILE",
        help="also write a SARIF 2.1.0 report to FILE (lets CI gate and "
        "upload findings from a single lint run)",
    )
    lint.set_defaults(handler=_cmd_lint)

    bench = sub.add_parser(
        "bench", help="deterministic benchmark suite (run/compare/list)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run", help="run a benchmark suite and record the results"
    )
    bench_run.add_argument(
        "--suite", choices=["smoke", "full"], default="smoke",
        help="case selection (default: smoke, the CI gate)",
    )
    bench_run.add_argument(
        "--case", action="append", default=None, metavar="NAME", dest="cases",
        help="run only this case (repeatable; overrides --suite)",
    )
    bench_run.add_argument(
        "--json", default=None, metavar="OUT",
        help="write the structured record to OUT",
    )
    bench_run.add_argument(
        "--repeats", type=int, default=3,
        help="timed executions per case (median is recorded; default: 3)",
    )
    bench_run.add_argument(
        "--warmup", type=int, default=1,
        help="untimed executions per case before timing (default: 1)",
    )
    bench_run.add_argument(
        # Not `dest="trace"`: that one makes main() trace the whole command.
        "--trace", default=None, metavar="DIR", dest="case_trace",
        help="trace every case; writes <case>.trace.json / .spans.jsonl / "
        ".phases.json into DIR",
    )
    bench_run.add_argument(
        "--update-baselines", action="store_true",
        help="also write the record as the suite's committed baseline",
    )
    bench_run.add_argument(
        "--baseline-dir", default="benchmarks/baselines", metavar="DIR",
        help="baseline directory for --update-baselines "
        "(default: benchmarks/baselines)",
    )
    bench_run.set_defaults(handler=_cmd_bench_run)

    bench_compare = bench_sub.add_parser(
        "compare", help="compare a bench record against a baseline"
    )
    bench_compare.add_argument("baseline", help="baseline record JSON path")
    bench_compare.add_argument("current", help="current record JSON path")
    bench_compare.add_argument(
        "--timing-tolerance", type=float, default=0.25, metavar="FRAC",
        help="relative timing band (default: 0.25 = 25%%)",
    )
    bench_compare.add_argument(
        "--gate-timings", action="store_true",
        help="fail (exit 1) on timing regressions too, not only counters",
    )
    bench_compare.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    bench_compare.set_defaults(handler=_cmd_bench_compare)

    bench_sub.add_parser(
        "list", help="print the benchmark case catalog"
    ).set_defaults(handler=_cmd_bench_list)

    sub.add_parser(
        "area", help="print the Fig. 14 area breakdown"
    ).set_defaults(handler=_cmd_area)
    return parser


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dataset", help="Table 1 name or abbreviation")
    parser.add_argument("--scale", type=float, default=0.0625)
    parser.add_argument("--snapshots", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)


def _add_faults_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="simulate a degraded array: 'rate=0.1,seed=11' (sampled) or "
        "'tiles=3|7,links=0-1|4-8,relinks=2' (explicit) — "
        "see docs/resilience.md",
    )


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="DIR",
        help="run under the tracer: print the phase breakdown and write "
        "trace.json / spans.jsonl / phases.json / flame.folded to DIR",
    )


def _add_stream_args(parser: argparse.ArgumentParser) -> None:
    """The event stream and model a serving command runs."""
    group = parser.add_argument_group("stream")
    group.add_argument(
        "dataset", nargs="?", default=None,
        help="Table 1 dataset to replay as an event stream "
        "(omit to serve a synthetic stream)",
    )
    group.add_argument("--scale", type=float, default=0.0625,
                       help="dataset synthesis scale (dataset mode)")
    group.add_argument("--snapshots", type=int, default=None,
                       help="dataset snapshot count (dataset mode)")
    group.add_argument("--seed", type=int, default=7)
    group.add_argument("--vertices", type=int, default=256,
                       help="synthetic stream vertex count")
    group.add_argument("--events", type=int, default=10_000,
                       help="synthetic stream event count")
    group.add_argument("--remove-fraction", type=float, default=0.15,
                       help="synthetic stream edge-removal share")
    group.add_argument("--window", type=float, default=None,
                       help="window width in stream time (default: 1.0 for "
                       "dataset replays, span/32 for synthetic streams)")
    group.add_argument("--hidden-dim", type=int, default=64,
                       help="DGNN hidden width (synthetic mode)")


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    """The :class:`ServiceConfig` knobs every serving command shares."""
    group = parser.add_argument_group("service")
    group.add_argument("--workers", type=int, default=2,
                       help="simulation worker threads (0 = inline)")
    group.add_argument("--batch", type=int, default=4,
                       help="max windows grouped per executor batch")
    group.add_argument("--pipeline-depth", type=int, default=2,
                       help="window batches in flight at once (1 = "
                       "serialized dispatch; results are bit-identical "
                       "at every depth — see docs/serving.md)")
    group.add_argument("--queue-capacity", type=int, default=8,
                       help="ingest queue bound (backpressure)")
    group.add_argument("--plan-cache-capacity", type=int, default=32,
                       help="LRU bound of the execution-plan cache")


def _add_durability_args(parser: argparse.ArgumentParser) -> None:
    """The flags :func:`_durability_config` reads."""
    group = parser.add_argument_group("durability")
    group.add_argument("--wal", default=None, metavar="DIR",
                       help="durable ingest: write-ahead-log every event "
                       "and checkpoint every committed window under DIR "
                       "(see docs/resilience.md 'Durability & recovery')")
    group.add_argument("--resume", action="store_true",
                       help="resume from the newest valid checkpoint in "
                       "--wal DIR, replaying the WAL suffix (results are "
                       "byte-identical to the uninterrupted run)")
    group.add_argument("--checkpoint-interval", type=int, default=1,
                       help="windows between checkpoints (durable mode)")
    group.add_argument("--wal-retain", type=int, default=3,
                       help="checkpoints retained on disk (durable mode)")
    group.add_argument("--kill-after-commit", type=int, default=None,
                       metavar="K",
                       help="chaos hook: SIGKILL this process right after "
                       "window K's commit is durable (durable mode; the "
                       "CI chaos-recovery job)")


def _add_slo_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("SLO")
    group.add_argument(
        "--p95-latency", type=float, default=0.5, metavar="S",
        help="SLO target: p95 window latency ceiling in seconds "
        "(default: 0.5)",
    )
    group.add_argument(
        "--restart-budget", type=float, default=0.0, metavar="N",
        help="SLO target: durable-resume ceiling (default: 0)",
    )
    group.add_argument(
        "--slo-json", default=None, metavar="OUT",
        help="evaluate the SLO targets and write the health report "
        "(JSON) to OUT",
    )


def _durability_config(args: argparse.Namespace):
    """The :class:`DurabilityConfig` the durability flags describe (or None)."""
    if not args.wal:
        if args.resume:
            raise SystemExit("--resume requires --wal DIR")
        if args.kill_after_commit is not None:
            raise SystemExit("--kill-after-commit requires --wal DIR")
        return None
    from .durability import DurabilityConfig

    return DurabilityConfig(
        directory=args.wal,
        resume=args.resume,
        checkpoint_interval=args.checkpoint_interval,
        retain=args.wal_retain,
        kill_after_commit=args.kill_after_commit,
    )


def _write_artifact(path: str, text: str, what: str) -> None:
    """Write ``text`` and a newline to ``path`` (creating its directory)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text + "\n")
    print(f"{what} written to {out}")


def _emit_slo(args: argparse.Namespace, stats, fmt: str = "text") -> int:
    """Evaluate the SLO targets against ``stats``, print the health report
    in ``fmt``, honor ``--slo-json``, and return the lint-style exit code."""
    from .obs import SLOMonitor, default_targets

    report = SLOMonitor(
        default_targets(
            p95_latency_s=args.p95_latency,
            restart_budget=args.restart_budget,
        )
    ).evaluate(stats)
    if fmt == "json":
        print(report.render_json())
    else:
        print()
        print(report.render_text())
    if args.slo_json:
        _write_artifact(args.slo_json, report.render_json(), "SLO report")
    return report.exit_code


def _runner(args: argparse.Namespace) -> ExperimentRunner:
    config = ExperimentConfig(
        scale=args.scale, seed=args.seed, snapshots=args.snapshots
    )
    return ExperimentRunner(config)


def _cmd_datasets(args: argparse.Namespace) -> None:
    rows = [
        [p.name, p.abbrev, p.vertices, p.edges, p.feature_dim, p.description]
        for p in TABLE1_DATASETS
    ]
    print(format_table(
        ["dataset", "abbrev", "vertices", "edges", "features", "kind"], rows
    ))


def _cmd_plan(args: argparse.Namespace) -> None:
    runner = _runner(args)
    graph = runner.graph(args.dataset)
    spec = runner.spec(args.dataset)
    model = runner.ditile()
    plan = model.plan(graph, spec)
    print(f"workload: {graph.stats().summary()}")
    print(plan.summary())
    print(
        f"tiling: alpha={plan.tiling.alpha}, working set "
        f"{plan.tiling.data_volume_bytes / 1024:.0f} KiB of "
        f"{plan.tiling.buffer_bytes / 1024:.0f} KiB"
    )
    print(
        f"balance: utilization={plan.workload.utilization:.3f}, "
        f"imbalance={plan.workload.imbalance:.3f}"
    )
    if args.explain:
        print()
        print(model.scheduler.explain(graph, spec))


def _parse_faults(args: argparse.Namespace, hardware=None):
    """Resolve an optional ``--faults SPEC`` flag to a :class:`FaultModel`."""
    if not args.faults:
        return None
    from .resilience import FaultSpecError, parse_fault_spec

    if hardware is None:
        hardware = ditile_model().hardware
    try:
        return parse_fault_spec(args.faults, hardware)
    except FaultSpecError as exc:
        raise SystemExit(f"error: invalid --faults spec: {exc}")


def _cmd_compare(args: argparse.Namespace) -> None:
    runner = _runner(args)
    faults = _parse_faults(args, runner.ditile().hardware)
    results = runner.compare(args.dataset, faults=faults)
    ditile = results["DiTile-DGNN"]
    rows = []
    for name in [*BASELINE_ORDER, "DiTile-DGNN"]:
        r = results[name]
        rows.append(
            [
                name,
                f"{r.execution_cycles:.3e}",
                f"{1e3 * r.energy_joules:.3f}",
                f"{r.dram_bytes / 2**20:.2f}",
                f"{r.execution_cycles / ditile.execution_cycles:.2f}x",
            ]
        )
    print(format_table(
        ["accelerator", "cycles", "energy_mJ", "dram_MB", "vs_DiTile"], rows
    ))
    if faults is not None:
        print(f"faults: {faults.describe()}")
        if ditile.degraded is not None:
            print(
                f"DiTile degraded-mode slowdown: "
                f"{ditile.degraded.slowdown:.4f}x "
                f"(reroute penalty "
                f"{ditile.degraded.total_reroute_penalty:.3e} cycles)"
            )


def _cmd_reproduce(args: argparse.Namespace) -> None:
    config = ExperimentConfig(
        scale=args.scale, seed=args.seed, snapshots=args.snapshots
    )
    names = args.figures or list(ALL_FIGURES)
    results = []
    for name in names:
        figure_fn = ALL_FIGURES[name]
        result = figure_fn(config) if name != "figure14" else figure_fn()
        results.append(result)
        print(result.to_text())
        print()
    if args.out:
        from .experiments.export import export_results

        written = export_results(results, args.out)
        print(f"exported {len(written) - 1} figures to {args.out}")


def _serve_setup(args: argparse.Namespace, **fields):
    """``(stream, spec, config)`` from the stream and service flags.

    ``fields`` are the :class:`ServiceConfig` fields a command sets on
    top: ``durability``, ``faults`` or the chaos harness's resilience
    policies.
    """
    from .core.plan import DGNNSpec
    from .serving import ServiceConfig, stream_from_dataset, synthetic_event_stream

    if args.dataset is not None:
        stream = stream_from_dataset(
            args.dataset,
            scale=args.scale,
            snapshots=args.snapshots,
            seed=args.seed,
        )
        from .graphs.datasets import dataset_profile

        spec = DGNNSpec.classic(dataset_profile(args.dataset).feature_dim)
        window = args.window if args.window is not None else 1.0
        origin = 0.0  # integer event times t=1..T-1 -> one transition/window
    else:
        stream = synthetic_event_stream(
            num_vertices=args.vertices,
            num_events=args.events,
            seed=args.seed,
            remove_fraction=args.remove_fraction,
        )
        spec = DGNNSpec.classic(args.hidden_dim, args.hidden_dim)
        first, last = stream.time_span
        window = (
            args.window
            if args.window is not None
            else max((last - first) / 32.0, 1e-9)
        )
        origin = None
    config = ServiceConfig(
        window=window,
        origin=origin,
        workers=args.workers,
        max_batch_windows=args.batch,
        pipeline_depth=args.pipeline_depth,
        queue_capacity=args.queue_capacity,
        plan_cache_capacity=args.plan_cache_capacity,
        **fields,
    )
    return stream, spec, config


def _print_stream(stream, config) -> None:
    """The one-line stream header of the serving commands."""
    first, last = stream.time_span
    windows = stream.num_windows(config.window, origin=config.origin)
    print(
        f"stream: {stream.name} |O|={stream.num_events} events over "
        f"[{first:g}, {last:g}], V={stream.num_vertices}, "
        f"window={config.window:g} ({windows} windows)"
    )


def _cmd_serve(args: argparse.Namespace) -> None:
    """Serve a stream; SLOs are evaluated only when ``--slo-json`` asks,
    and never fail the run (``repro slo`` is the exit-code surface)."""
    from .serving import StreamingService

    stream, spec, config = _serve_setup(
        args, faults=_parse_faults(args), durability=_durability_config(args)
    )
    _print_stream(stream, config)
    report = StreamingService(ditile_model(), config).serve(stream, spec)
    print(report.stats.summary())
    print(
        f"simulated load     {report.total_cycles:.3e} accelerator cycles "
        f"over {report.num_windows} windows"
    )
    if config.faults is not None:
        print(f"faults: {config.faults.describe()}")
    if args.results_json:
        _write_artifact(
            args.results_json, report.results_json(), "per-window results"
        )
    if args.slo_json:
        _emit_slo(args, report.stats)


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    from .resilience import (
        BreakerConfig,
        ChaosSchedule,
        RetryPolicy,
        run_chaos,
    )

    stream, spec, config = _serve_setup(
        args,
        retry=RetryPolicy(max_attempts=args.max_attempts, backoff_s=0.0005),
        breaker=BreakerConfig(),
        quarantine=True,
        durability=_durability_config(args),
    )
    schedule = ChaosSchedule(
        seed=args.chaos_seed,
        crash_rate=args.crash_rate,
        latency_rate=args.latency_rate,
        latency_s=args.latency_s,
        poison_rate=args.poison_rate,
    )
    _print_stream(stream, config)
    print(f"chaos: {schedule.describe()}")
    report = run_chaos(stream, spec, schedule, config=config, model=ditile_model())
    print(report.stats.summary())
    if args.json:
        _write_artifact(args.json, report.results_json(), "chaos outcome")
    if args.slo_json:
        _emit_slo(args, report.stats)
    # Exit 0 only if every window was eventually served: a permanently
    # failed window is graceful degradation, but CI should notice it.
    return 0 if report.stats.windows_failed == 0 else 1


def _cmd_chaos_recover(args: argparse.Namespace) -> int:
    from .durability import run_recover_sweep

    stream, spec, config = _serve_setup(args)
    kill_points = None
    if args.kill_points:
        kill_points = [
            int(part) for part in args.kill_points.split(",") if part.strip()
        ]
    _print_stream(stream, config)
    print(
        f"recover: depth={config.pipeline_depth} "
        f"kill points={'all boundaries' if kill_points is None else kill_points}"
    )
    report, _reference = run_recover_sweep(
        stream,
        spec,
        config=config,
        kill_points=kill_points,
        root=args.artifacts,
        keep_artifacts=args.artifacts is not None,
        progress=print,
    )
    print(report.summary())
    if args.json:
        _write_artifact(args.json, report.to_json(), "recovery report")
    return report.exit_code


def _cmd_chaos_sweep(args: argparse.Namespace) -> None:
    from .experiments import fault_sweep

    runner = _runner(args)
    graph = runner.graph(args.dataset)
    spec = runner.spec(args.dataset)
    rates = tuple(
        float(part) for part in args.rates.split(",") if part.strip()
    )
    print(fault_sweep(graph, spec, rates=rates, seed=args.fault_seed).to_text())


def _cmd_slo(args: argparse.Namespace) -> int:
    """Serve a stream, evaluate SLO targets, exit 1 on any violation."""
    from .serving import StreamingService

    stream, spec, config = _serve_setup(
        args, durability=_durability_config(args)
    )
    report = StreamingService(ditile_model(), config).serve(stream, spec)
    if args.format == "text":
        print(report.stats.summary())
    return _emit_slo(args, report.stats, args.format)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        EXIT_USAGE,
        LintRunner,
        UsageError,
        default_registry,
        render_json,
        render_sarif,
        render_text,
    )

    if args.list_rules:
        for rule in default_registry().rules:
            print(f"{rule.id}  [{rule.severity}]  {rule.name}")
            print(f"        {rule.rationale}")
        return 0
    if args.explain:
        rule_id = args.explain.strip().upper()
        try:
            rule = default_registry().get(rule_id)
        except KeyError:
            print(f"error: unknown rule {rule_id}")
            return EXIT_USAGE
        print(f"{rule.id}  [{rule.severity}]  {rule.name}")
        print()
        print(f"  {rule.rationale}")
        scope = rule.scope
        if scope.include:
            print()
            print(f"  applies to: {', '.join(scope.include)}", end="")
            print(f" (excluding {', '.join(scope.exclude)})" if scope.exclude else "")
        if rule.example:
            print()
            print("  example:")
            for line in rule.example.rstrip("\n").split("\n"):
                print(f"    {line}")
        print()
        print(
            "  suppress a justified exception with "
            f"`# repro: noqa[{rule.id}] <why>`"
        )
        return 0
    select = (
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select
        else None
    )
    try:
        runner = LintRunner(
            select=select,
            report_unused_suppressions=not args.no_unused_suppressions,
        )
        report = runner.run([Path(p) for p in args.paths])
    except UsageError as exc:
        print(f"error: {exc}")
        return EXIT_USAGE
    if args.format == "json":
        print(render_json(report.findings, report.files_checked))
    elif args.format == "sarif":
        print(
            render_sarif(
                report.findings,
                report.files_checked,
                rules=default_registry().rules,
            )
        )
    else:
        print(render_text(report.findings, report.files_checked))
    if args.sarif_out:
        sarif = render_sarif(
            report.findings,
            report.files_checked,
            rules=default_registry().rules,
        )
        _write_artifact(args.sarif_out, sarif, "SARIF report")
    return report.exit_code


def _cmd_bench_list(args: argparse.Namespace) -> None:
    from .bench import default_registry

    for case in default_registry().select():
        suites = ",".join(case.suites)
        print(f"{case.name:<34} [{suites}]  {case.description}")


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from .bench import EXIT_USAGE, BenchRecord, RecordError, compare_records

    try:
        baseline = BenchRecord.load(args.baseline)
        current = BenchRecord.load(args.current)
        report = compare_records(
            baseline,
            current,
            timing_tolerance=args.timing_tolerance,
            gate_timings=args.gate_timings,
        )
    except (RecordError, ValueError) as exc:
        print(f"error: {exc}")
        return EXIT_USAGE
    print(report.render_json() if args.format == "json" else report.render_text())
    return report.exit_code


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from .bench import (
        EXIT_REGRESSIONS,
        EXIT_USAGE,
        BenchRunner,
        NondeterministicCaseError,
        UnknownCaseError,
    )

    try:
        runner = BenchRunner(
            repeats=args.repeats,
            warmup=args.warmup,
            progress=print,
            trace_dir=args.case_trace,
        )
        record = runner.run(
            suite=None if args.cases else args.suite, names=args.cases
        )
    except (UnknownCaseError, ValueError) as exc:
        print(f"error: {exc}")
        return EXIT_USAGE
    except NondeterministicCaseError as exc:
        print(f"error: {exc}")
        return EXIT_REGRESSIONS
    for case in record.cases:
        print(
            f"{case.name:<34} run_s={case.timings['run_s']:.4f}  "
            f"({len(case.counters)} counters)"
        )
    if args.json:
        path = record.save(args.json)
        print(f"record written to {path}")
    if args.update_baselines:
        suite = record.suite if record.suite is not None else "custom"
        path = record.save(Path(args.baseline_dir) / f"{suite}.json")
        print(f"baseline updated: {path}")
    return 0


def _cmd_area(args: argparse.Namespace) -> None:
    print(figure14(HardwareConfig.small()).to_text())


def ditile_model():
    """The service's accelerator model (one seam for tests to patch)."""
    from .ditile import DiTileAccelerator

    return DiTileAccelerator()


def _run_traced(args: argparse.Namespace) -> int:
    """Run the command under a :class:`~repro.obs.TraceSession` exporting
    to ``--trace DIR``; print the phase breakdown after the command's own
    output, then the exported artifact paths."""
    from .obs import TraceSession

    with TraceSession(args.trace, name=args.command) as session:
        code = args.handler(args)
    print()
    print(session.report.render_text())
    for kind in sorted(session.written):
        print(f"trace {kind}: {session.written[kind]}")
    return code or 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.trace:
        return _run_traced(args)
    return args.handler(args) or 0
