"""Serving benchmark: three workloads through ``StreamingService.serve``.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload stream-durable --seed 7 --seconds 45 --trace 0

``--trace 0`` measures end-to-end metrics from untraced serves only;
``--trace 1`` alternates untraced and traced serves and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Every
serve is checked against the offline reference and its own accounting.
Human-readable lines come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Run
metadata and (traced runs) the span log are written under ``.perfbench/``
in the checkout.  ``--write-manifest`` regenerates ``BENCHMARK.json``.
"""

import time

_STARTED = time.perf_counter()  # set-up probes time from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
#: run outputs: metadata, span logs, durability roots (all in the checkout)
OUT = ROOT / ".perfbench"
#: fewest child processes that each time one set-up; ``setup_s`` is their
#: median.  One runs after each serve, so the samples span the whole run.
SETUP_PROBES = 5
#: a reported tail percentile needs this many samples beyond it (every
#: workload serves at least 200 windows, enough for a per-serve p95)
MIN_BEYOND = 10


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's sources, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def _probe_setup(workload_name: str) -> None:
    """Child-process body: import repro, build the model and service, and
    print the seconds since this interpreter began running the script."""
    _bootstrap()
    from perfbench.workloads import WORKLOADS, build_service

    workload = WORKLOADS[workload_name]
    # The durability config only records the path; serve() creates it.
    build_service(workload, OUT / "probe" if workload.durable else None)
    print(f"{time.perf_counter() - _STARTED!r}")


def _setup_sample(workload_name: str) -> float:
    """Seconds one fresh process takes to set up (see :func:`_probe_setup`)."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(child.stdout.split()[-1])


# ----------------------------------------------------------------------
# Metadata (recorded for diagnosing noise; never used to normalise)
# ----------------------------------------------------------------------
def _calibration_s() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - started


def _fs_type(path: Path) -> str:
    try:
        with open("/proc/mounts") as mounts:
            entries = [line.split() for line in mounts]
    except OSError:
        return "unknown"
    path_s = str(path.resolve())
    best, fstype = "", "unknown"
    for entry in entries:
        mount = entry[1]
        inside = path_s == mount or path_s.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, entry[2]
    return fstype


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _metadata(durable_parent: Path) -> Dict[str, object]:
    import numpy

    durable_parent.mkdir(parents=True, exist_ok=True)
    return {
        "calibration_loop_s": _calibration_s(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "durability_root": str(durable_parent.relative_to(ROOT)),
        "durability_root_fs": _fs_type(durable_parent),
    }


# ----------------------------------------------------------------------
# One serve
# ----------------------------------------------------------------------
@dataclass
class Serve:
    """One serve, reduced to what the metrics need once it has been checked
    (the per-event pull times are dropped, so a run's memory does not grow
    with the number of serves that fit in it)."""

    traced: bool
    report: object
    wall: float
    #: window latency percentiles in seconds (see :func:`_window_latencies`)
    latency_p50: float
    latency_p95: float
    #: 95th-percentile input lag in seconds
    lag_p95: float
    problems: List[str]
    fingerprints: list
    spans: list = field(default_factory=list)
    wal_bytes: int = 0

    @property
    def served_events(self) -> int:
        return sum(r.num_events for r in self.report.stats.records)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _serve(workload, inputs, traced: bool, oracle, reference) -> Serve:
    """Serve the stream once, check the outcome, and summarise it."""
    from perfbench.layers import LayerTracer
    from perfbench.pacing import Pacer, percentile
    from perfbench.workloads import build_service, durable_root, paced_stream

    tracer = LayerTracer(inputs.window_of_event) if traced else None
    gc.collect()  # every serve starts without the previous one's garbage
    with durable_root(OUT / "tmp") if workload.durable else nullcontext() as root:
        service = build_service(workload, root)
        pacer = Pacer(inputs.stream.events, inputs.offsets)
        stream = paced_stream(inputs.stream, pacer)
        with tracer.active() if traced else nullcontext():
            pacer.start()
            report = service.serve(stream, inputs.spec)
            returned_at = time.perf_counter()
        wal_bytes = _dir_bytes(root / "wal") if root is not None else 0
    problems, prints = _check(report, pacer, returned_at, workload, inputs, oracle, reference)
    latencies = _window_latencies(report, pacer, workload, inputs)
    return Serve(
        traced=traced,
        report=report,
        wall=returned_at - pacer.t0,
        latency_p50=percentile(latencies, 0.50),
        latency_p95=percentile(latencies, 0.95, MIN_BEYOND),
        lag_p95=percentile(pacer.lags(), 0.95, MIN_BEYOND),
        problems=problems,
        fingerprints=prints,
        spans=tracer.spans if traced else [],
        wal_bytes=wal_bytes,
    )


def _check(report, pacer, returned_at, workload, inputs, oracle, reference):
    """Every correctness gate for one serve: ``(problems, fingerprints)``."""
    from perfbench import checks

    total = len(inputs.stream.events)
    problems = checks.accounting_problems(report, total, inputs.expected_windows)
    if workload.paced:
        problems += checks.pacing_problems(pacer, total, returned_at, 1.0 / workload.rate)
    prints = checks.fingerprints(
        report.results, [r.plan_decision for r in report.stats.records]
    )
    differ = checks.parity_problems(prints, oracle)
    if differ:
        problems.append(
            f"{len(differ)} of the first {len(oracle)} windows differ from serve_offline"
        )
    differ = checks.parity_problems(prints, reference) if reference is not None else []
    if differ:
        problems.append(f"{len(differ)} windows differ from the run's first serve")
    return problems, prints


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _window_latencies(report, pacer, workload, inputs) -> List[float]:
    """Per-window latency samples of one serve, in seconds.

    Paced: close -> result, as the service records it.  Max-rate: the
    whole stream is offered when ``serve()`` starts, so a window's latency
    is the time from then to its result: the moment ingest pulled the event
    that closed the window (or found the stream exhausted) plus the
    recorded close -> result latency.
    """
    records = report.stats.records
    if workload.paced:
        return [r.latency_s for r in records]
    closed_by = inputs.closing_position
    return [
        (pacer.pulls[closed_by[r.index]] if closed_by[r.index] is not None
         else pacer.exhausted_at) + r.latency_s - pacer.t0
        for r in records
    ]


def _end_to_end(serves: List[Serve], setup: List[float], peak_rss_mb: float) -> Dict[str, float]:
    """Medians over the run's serves (a slow serve moves a median less than
    it moves a percentile of samples pooled across serves)."""
    return {
        "events_per_s": statistics.median(s.served_events / s.wall for s in serves),
        "window_latency_p50_ms": 1e3 * statistics.median(s.latency_p50 for s in serves),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def _tails(serves: List[Serve]) -> Dict[str, float]:
    """Tail latencies in ms, printed and recorded but not gated: on a shared
    host, bursts of interference double the paced workload's p95 for minutes
    at a time while its median moves far less."""
    return {
        "window_latency_p95_ms": 1e3 * statistics.median(s.latency_p95 for s in serves),
        "input_lag_p95_ms": 1e3 * statistics.median(s.lag_p95 for s in serves),
    }


def _per_layer(serves: List[Serve], workload) -> Dict[str, float]:
    """Mean per-layer metrics over the traced serves, plus the overhead of
    tracing versus the untraced serves of the same run."""
    from perfbench.layers import layer_metrics

    traced = [s for s in serves if s.traced]
    per_serve = [
        layer_metrics(s.spans, s.report.stats, s.report.results, s.wall, s.wal_bytes)
        for s in traced
    ]
    metrics = {k: statistics.fmean(m[k] for m in per_serve) for k in per_serve[0]}

    def cost(group: List[Serve]) -> float:
        # Paced serves last as long as the schedule, so compare latency.
        if workload.paced:
            return statistics.median(s.latency_p50 for s in group)
        return statistics.median(s.wall for s in group)

    plain = [s for s in serves if not s.traced]
    metrics["trace.overhead_frac"] = cost(traced) / cost(plain) - 1.0
    return metrics


# ----------------------------------------------------------------------
# Run
# ----------------------------------------------------------------------
def _units() -> Dict[str, str]:
    from perfbench.layers import per_layer_table
    from perfbench.manifest import END_TO_END

    return {m["name"]: m["unit"] for m in END_TO_END + per_layer_table()}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    _bootstrap()
    from perfbench import checks
    from perfbench.workloads import WORKLOADS, make_inputs

    workload = WORKLOADS[workload_name]
    meta = _metadata(OUT / "tmp")
    inputs = make_inputs(workload, seed)
    oracle = checks.offline_prefix(workload, inputs)

    serves: List[Serve] = []
    setup: List[float] = []
    peak_rss_mb = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        for traced in ((False, True) if trace else (False,)):
            reference = serves[0].fingerprints if serves else None
            serve = _serve(workload, inputs, traced, oracle, reference)
            serves.append(serve)
            if len(serves) == 1:
                # Later serves only add allocator noise (fresh threads pick
                # fresh malloc arenas), not service memory.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(
                f"# serve {len(serves)}{' traced' if traced else ''}: "
                f"{serve.wall:.3f} s, {serve.served_events} events, "
                f"{len(serve.report.stats.records)} windows"
                + (f", FAILED: {'; '.join(serve.problems)}" if serve.problems else "")
            )
        if not trace:
            setup.append(_setup_sample(workload_name))
        if time.perf_counter() >= deadline:
            break
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(_setup_sample(workload_name))

    if trace:
        metrics = _per_layer(serves, workload)
    else:
        metrics = _end_to_end(serves, setup, peak_rss_mb)
    attempted = inputs.expected_windows * len(serves)
    # A failed gate fails every window of its serve.
    failed = inputs.expected_windows * sum(1 for s in serves if s.problems)
    units = _units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    tails = {} if trace else _tails(serves)
    _write_outputs(workload_name, seed, trace, meta, setup, serves, result, tails)
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in tails.items():
        print(f"{name} = {value:.6g} ms (not gated)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _write_outputs(workload_name, seed, trace, meta, setup, serves, result, tails) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{workload_name}-seed{seed}-trace{int(trace)}"
    summary = {
        "meta": meta,
        "setup_samples_s": setup,
        "serves": [
            {
                "traced": s.traced,
                "wall_s": s.wall,
                "events": s.served_events,
                "windows": len(s.report.stats.records),
                "problems": s.problems,
            }
            for s in serves
        ],
        "result": result,
        "not_gated": tails,
    }
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=2) + "\n")
    if trace:
        with stem.with_suffix(".spans.jsonl").open("w") as out:
            for number, serve in enumerate(serves, 1):
                for span in serve.spans:
                    out.write(json.dumps({"serve": number, **vars(span)}) + "\n")


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.manifest import RUN_SECONDS, write_manifest
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json at the checkout root")
    args = parser.parse_args(argv)
    if args.write_manifest:
        write_manifest(ROOT / "BENCHMARK.json")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        _probe_setup(args.workload)
        return 0
    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    return run(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
