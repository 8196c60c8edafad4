"""Streaming-inference service demo: serve an event stream online.

Where ``event_stream_pipeline.py`` walks the *offline* on-ramp (CSV ->
discretize -> one batch simulation), this example runs the *online*
service layer (paper §2.1 streams + the ROADMAP's serving north star):

1. synthesize a bursty power-law interaction stream;
2. serve it through the three-stage pipeline — threaded incremental
   ingest, LRU plan cache keyed by workload signature, batched
   worker-pool simulation with bounded-queue backpressure;
3. print the service statistics (throughput, latency percentiles, cache
   behaviour);
4. verify determinism: the offline batch pipeline over the same windowed
   discretization yields bit-identical per-window results.

Run:  python examples/streaming_service.py
"""

from repro import (
    DGNNSpec,
    DiTileAccelerator,
    ServiceConfig,
    StreamingService,
    serve_offline,
    synthetic_event_stream,
)


def main():
    # 1. A synthetic interaction stream: hub-heavy destinations, ~15%
    #    unfollows, bursty arrival times (stress for the plan cache).
    stream = synthetic_event_stream(
        num_vertices=300,
        num_events=8_000,
        seed=23,
        remove_fraction=0.15,
        burst_period=600.0,
        name="bursty-interactions",
    )
    first, last = stream.time_span
    print(
        f"stream: |O|={stream.num_events} events over [{first:.0f}, {last:.0f}], "
        f"V={stream.num_vertices}"
    )

    # 2. Serve it online: ~40 windows, 2 simulation workers, batches of 4.
    config = ServiceConfig(
        window=(last - first) / 40,
        workers=2,
        max_batch_windows=4,
        queue_capacity=8,
        plan_cache_capacity=32,
    )
    spec = DGNNSpec.classic(64)
    model = DiTileAccelerator()
    report = StreamingService(model, config).serve(stream, spec)

    # 3. Service statistics.
    print()
    print(report.stats.summary())
    print(
        f"simulated load     {report.total_cycles:.3e} accelerator cycles "
        f"over {report.num_windows} windows"
    )

    # 4. Determinism: the offline batch pipeline agrees window for window.
    offline = serve_offline(stream, spec, DiTileAccelerator(), config)
    assert len(offline) == report.num_windows
    assert all(a == b for a, b in zip(report.results, offline))
    print(
        f"\nparity: online == offline for all {report.num_windows} windows "
        "(deterministic serving)"
    )


if __name__ == "__main__":
    main()
