"""Serving-layer benchmark: events/sec and window-latency percentiles.

Runs the ``serving/throughput[standard]`` bench case (the full online
pipeline: threaded ingest, plan cache, batched worker-pool execution)
through :class:`repro.bench.BenchRunner` and refreshes the committed
``BENCH_serving.json`` record.  The same record is reproducible from the
CLI::

    repro bench run --case "serving/throughput[standard]" --json BENCH_serving.json

The committed ``benchmarks/baselines/full.json`` entry for the case acts
as the baseline: deterministic counters (events, windows, plan-cache
behaviour, modelled cycles) must match it exactly; wall-clock timings
are reported but not gated here — the ``repro bench compare`` tolerance
band handles those in CI.
"""

from pathlib import Path

from repro.bench import BenchRecord, BenchRunner, compare_records

CASE = "serving/throughput[standard]"

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "baselines" / "full.json"
OUTPUT = ROOT / "BENCH_serving.json"


def test_serving_throughput():
    full_baseline = BenchRecord.load(BASELINE)
    baseline = BenchRecord(
        cases=[full_baseline.case(CASE)],
        suite=full_baseline.suite,
        environment=full_baseline.environment,
    )
    record = BenchRunner(repeats=3, warmup=1).run(names=[CASE])

    # Emit the machine-readable record before asserting anything, so a
    # regression still leaves the fresh measurements on disk.
    record.save(OUTPUT)
    case = record.case(CASE)
    events_per_sec = case.counters["events"] / case.timings["elapsed_s"]
    print(
        f"\nserving: {events_per_sec:,.0f} events/s, "
        f"p50={1e3 * case.timings['p50_latency_s']:.2f} ms, "
        f"p95={1e3 * case.timings['p95_latency_s']:.2f} ms -> {OUTPUT.name}"
    )

    report = compare_records(baseline, record)
    assert not report.counter_failures, report.render_text()

    assert case.counters["events"] == 12_000
    assert case.counters["windows"] == 48
    assert case.counters["late_events"] == 0
    assert case.counters["total_cycles"] > 0
    assert events_per_sec > 1_000  # generous floor: the
    # analytic simulator prices a window in milliseconds, so tens of
    # thousands of events/sec is typical even on slow CI machines
    assert 0 < case.timings["p50_latency_s"] <= case.timings["p95_latency_s"]
