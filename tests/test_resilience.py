"""Tests for repro.resilience: faults, policies, chaos, degraded mode."""

import json
import math

import pytest

from repro.accel.config import HardwareConfig
from repro.accel.noc import NoCModel, NoCTraffic
from repro.accel.simulator import AcceleratorSimulator
from repro.baselines import (
    DGNNBoosterAccelerator,
    MEGAAccelerator,
    RACEAccelerator,
    ReaDyAccelerator,
)
from repro.core.plan import DGNNSpec
from repro.ditile import DiTileAccelerator
from repro.experiments.resilience import fault_sweep
from repro.graphs.continuous import EdgeEvent
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import generate_dynamic_graph
from repro.resilience import (
    BreakerConfig,
    ChaosSchedule,
    CircuitBreaker,
    FaultModel,
    FaultSpecError,
    InjectedFault,
    RetryPolicy,
    parse_fault_spec,
    run_chaos,
)
from repro.serving import (
    ServiceConfig,
    StreamingService,
    WindowedIngestor,
    event_fault,
    serve_offline,
    synthetic_event_stream,
)
from repro.serving.executor import WindowExecutor

HW = HardwareConfig.small()
SPEC = DGNNSpec(gcn_dims=(8, 8), rnn_hidden_dim=8)


# ---------------------------------------------------------------------------
# FaultModel (resilience/faults.py)
# ---------------------------------------------------------------------------
class TestFaultModel:
    def test_none_is_clean(self):
        faults = FaultModel.none()
        assert faults.is_clean
        assert faults.describe() == "fault-free"
        assert faults.counts() == {
            "failed_tiles": 0,
            "failed_links": 0,
            "failed_relinks": 0,
        }

    def test_sample_deterministic(self):
        a = FaultModel.sample(HW, tile_rate=0.2, link_rate=0.2, seed=5)
        b = FaultModel.sample(HW, tile_rate=0.2, link_rate=0.2, seed=5)
        assert a == b

    def test_sample_nested_across_rates(self):
        # Same seed, higher rates: the fault set only ever grows.
        lo = FaultModel.sample(
            HW, tile_rate=0.05, link_rate=0.1, relink_rate=0.1, seed=3
        )
        hi = FaultModel.sample(
            HW, tile_rate=0.2, link_rate=0.4, relink_rate=0.4, seed=3
        )
        assert lo.failed_tiles <= hi.failed_tiles
        assert lo.failed_links <= hi.failed_links
        assert lo.failed_relinks <= hi.failed_relinks

    def test_sample_rate_validation(self):
        with pytest.raises(ValueError, match="tile_rate"):
            FaultModel.sample(HW, tile_rate=1.5)

    def test_link_failed_normalizes_and_covers_dead_tiles(self):
        faults = FaultModel(failed_tiles=frozenset({3}), failed_links=frozenset({(0, 1)}))
        assert faults.link_failed(0, 1) and faults.link_failed(1, 0)
        # Any link incident to a dead tile is down, wire state aside.
        assert faults.link_failed(3, 7) and faults.link_failed(7, 3)
        assert not faults.link_failed(4, 5)

    def test_live_tiles_rejects_dead_array(self):
        all_dead = FaultModel(failed_tiles=frozenset(range(HW.total_tiles)))
        with pytest.raises(ValueError, match="every tile"):
            all_dead.live_tiles(HW)

    def test_tile_remap_nearest_live_lower_first(self):
        faults = FaultModel(failed_tiles=frozenset({5}))
        assert faults.tile_remap(HW) == {5: 4}  # tie 4 vs 6 -> lower index
        run = FaultModel(failed_tiles=frozenset({0, 1}))
        remap = run.tile_remap(HW)
        assert remap == {0: 2, 1: 2}
        assert all(t not in run.failed_tiles for t in remap.values())


class TestParseFaultSpec:
    def test_explicit(self):
        faults = parse_fault_spec("tiles=3|7,links=0-1|4-8,relinks=2")
        assert faults.failed_tiles == {3, 7}
        assert faults.failed_links == {(0, 1), (4, 8)}
        assert faults.failed_relinks == {2}

    def test_sampled_matches_sample(self):
        faults = parse_fault_spec("rate=0.2,seed=11", HW)
        assert faults == FaultModel.sample(
            HW, tile_rate=0.05, link_rate=0.2, relink_rate=0.2, seed=11
        )

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("", "empty"),
            ("bogus", "key=value"),
            ("rate=0.1,tiles=3", "mix"),
            ("tiles=3,seed=7", "seed only applies"),
            ("frobnicate=1", "unknown"),
            ("rate=abc", "bad numeric"),
            ("links=0-1-2", "srcTile-dstTile"),
            ("seed=4", "neither"),
        ],
    )
    def test_errors(self, spec, message):
        with pytest.raises(FaultSpecError, match=message):
            parse_fault_spec(spec, HW)

    def test_sampled_needs_hardware(self):
        with pytest.raises(FaultSpecError, match="hardware"):
            parse_fault_spec("rate=0.1")


# ---------------------------------------------------------------------------
# Retry + circuit breaker (resilience/policies.py)
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.01, multiplier=2.0)
        assert policy.backoff(1) == pytest.approx(0.01)
        assert policy.backoff(2) == pytest.approx(0.02)
        assert policy.backoff(3) == pytest.approx(0.04)
        assert policy.backoff(0) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_s": -1.0},
            {"multiplier": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestCircuitBreaker:
    def test_trips_after_threshold_invocations(self):
        breaker = CircuitBreaker(BreakerConfig(threshold=3, cooldown=2))
        for _ in range(2):
            breaker.record_invocation()
        assert breaker.allow() and breaker.trips == 0
        breaker.record_invocation()
        assert breaker.trips == 1 and not breaker.allow() and breaker.is_open

    def test_cooldown_counts_down_to_half_open(self):
        breaker = CircuitBreaker(BreakerConfig(threshold=1, cooldown=2))
        breaker.record_invocation()
        assert not breaker.allow()
        breaker.record_short_circuit()
        assert not breaker.allow()
        breaker.record_short_circuit()
        assert breaker.allow()  # half-open: one real resolution allowed

    def test_success_resets_the_storm_counter(self):
        breaker = CircuitBreaker(BreakerConfig(threshold=2, cooldown=1))
        breaker.record_invocation()
        breaker.record_success()
        breaker.record_invocation()
        assert breaker.trips == 0 and breaker.allow()


# ---------------------------------------------------------------------------
# Chaos schedule (resilience/chaos.py)
# ---------------------------------------------------------------------------
class TestChaosSchedule:
    def test_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            ChaosSchedule(crash_rate=1.5)
        with pytest.raises(ValueError, match="latency_s"):
            ChaosSchedule(latency_s=-1.0)

    def test_quiet(self):
        assert ChaosSchedule(seed=1).is_quiet
        assert not ChaosSchedule(seed=1, crash_rate=0.1).is_quiet
        assert "quiet" in ChaosSchedule(seed=1).describe()
        assert "crash=0.5" in ChaosSchedule(seed=1, crash_rate=0.5).describe()

    def test_decisions_deterministic_and_site_keyed(self):
        a = ChaosSchedule(seed=9, crash_rate=0.5, latency_rate=0.5, latency_s=0.01)
        b = ChaosSchedule(seed=9, crash_rate=0.5, latency_rate=0.5, latency_s=0.01)
        sites = [(w, t) for w in range(8) for t in range(3)]
        assert [a.crashes(w, t) for w, t in sites] == [
            b.crashes(w, t) for w, t in sites
        ]
        assert [a.latency(w, t) for w, t in sites] == [
            b.latency(w, t) for w, t in sites
        ]
        # A different seed produces a different decision stream.
        c = ChaosSchedule(seed=10, crash_rate=0.5)
        assert [a.crashes(w, t) for w, t in sites] != [
            c.crashes(w, t) for w, t in sites
        ]

    def test_inject_splices_malformed_events_only(self):
        schedule = ChaosSchedule(seed=2, poison_rate=0.3)
        events = [EdgeEvent(float(t), t % 4, (t + 1) % 4, "add") for t in range(40)]
        out = list(schedule.inject(events, num_vertices=4))
        poison = [e for e in out if event_fault(e, 4) is not None]
        assert len(out) == len(events) + len(poison)
        assert 0 < len(poison) < len(events)
        assert [e for e in out if event_fault(e, 4) is None] == events
        # Both malformed kinds appear at this rate/seed.
        assert any(not math.isfinite(e.time) for e in poison)
        assert any(e.src >= 4 for e in poison)


# ---------------------------------------------------------------------------
# Degraded NoC + simulator (accel/noc.py, accel/simulator.py)
# ---------------------------------------------------------------------------
FAULTS = FaultModel.sample(HW, tile_rate=0.1, link_rate=0.3, relink_rate=0.3, seed=7)


class TestDegradedNoC:
    def test_clean_faults_are_dropped(self):
        clean = NoCModel(HW)
        with_clean = NoCModel(HW, faults=FaultModel.none())
        assert with_clean.faults is None
        for regular in (True, False):
            assert with_clean.avg_hops(regular) == clean.avg_hops(regular)
            assert with_clean.parallel_paths(regular) == clean.parallel_paths(regular)

    @pytest.mark.parametrize("topology", ["ditile", "mesh", "ring", "crossbar"])
    def test_degradation_never_improves(self, topology):
        from dataclasses import replace

        from repro.accel.config import NoCConfig

        hw = (
            HW
            if topology == "ditile"
            else replace(HW, noc=NoCConfig(topology=topology))
        )
        clean = NoCModel(hw)
        degraded = NoCModel(hw, faults=FAULTS)
        for regular in (True, False):
            assert degraded.avg_hops(regular) >= clean.avg_hops(regular)
            assert degraded.parallel_paths(regular) <= clean.parallel_paths(regular)

    def test_transfer_cycles_monotone_in_faults(self):
        traffic = NoCTraffic(
            temporal_bytes=1e5, spatial_bytes=1e5, reuse_bytes=5e4
        )
        cycles = []
        for rate in (0.0, 0.1, 0.2, 0.4):
            faults = FaultModel.sample(
                HW, tile_rate=rate / 4, link_rate=rate, relink_rate=rate, seed=7
            )
            cycles.append(NoCModel(HW, faults=faults).transfer_cycles(traffic))
        assert cycles == sorted(cycles)


class TestDegradedSimulator:
    def _graph(self):
        return generate_dynamic_graph(48, 160, 3, seed=5)

    def test_clean_run_has_no_degraded_report(self):
        model = DiTileAccelerator(HW)
        result = model.simulate(self._graph(), SPEC)
        assert result.degraded is None

    def test_clean_faults_bit_identical(self):
        model = DiTileAccelerator(HW)
        graph = self._graph()
        base = model.simulate(graph, SPEC)
        with_clean = model.simulate(graph, SPEC, faults=FaultModel.none())
        assert with_clean.execution_cycles == base.execution_cycles
        assert with_clean.degraded is None

    def test_degraded_report(self):
        model = DiTileAccelerator(HW)
        result = model.simulate(self._graph(), SPEC, faults=FAULTS)
        deg = result.degraded
        assert deg is not None
        assert deg.failed_tiles == len(FAULTS.failed_tiles)
        assert deg.live_tiles == HW.total_tiles - len(FAULTS.failed_tiles)
        assert deg.slowdown >= 1.0
        assert deg.degraded_cycles == pytest.approx(result.execution_cycles)
        assert deg.compute_stretch >= 1.0
        assert all(v >= 0.0 for v in deg.reroute_penalty_cycles.values())

    def test_cycles_monotone_in_fault_rate(self):
        model = DiTileAccelerator(HW)
        graph = self._graph()
        cycles = []
        for rate in (0.0, 0.1, 0.25):
            faults = FaultModel.sample(
                HW, tile_rate=rate, link_rate=rate, relink_rate=rate, seed=13
            )
            cycles.append(model.simulate(graph, SPEC, faults=faults).execution_cycles)
        assert cycles == sorted(cycles)

    @pytest.mark.parametrize(
        "accelerator",
        [
            DiTileAccelerator,
            ReaDyAccelerator,
            DGNNBoosterAccelerator,
            RACEAccelerator,
            MEGAAccelerator,
        ],
    )
    def test_baseline_cycles_equal_the_fault_free_run(self, accelerator):
        # The degraded report's baseline is the clean array's total under
        # the same composition rule, so it must match a fault-free run
        # exactly, not approximately.
        model = accelerator()
        graph = load_dataset("pubmed", scale=0.02, snapshots=4, seed=3)
        clean = model.simulate(graph, SPEC).cycles.total
        for seed, rate in ((0, 0.05), (1, 0.2)):
            faults = FaultModel.sample(
                model.hardware,
                tile_rate=rate,
                link_rate=rate,
                relink_rate=rate,
                seed=seed,
            )
            degraded = model.simulate(graph, SPEC, faults=faults).degraded
            assert degraded is not None
            assert degraded.baseline_cycles == clean


# ---------------------------------------------------------------------------
# Fault sweep (experiments/resilience.py)
# ---------------------------------------------------------------------------
class TestFaultSweep:
    def test_monotone_and_ditile_degrades_no_worse(self):
        graph = generate_dynamic_graph(48, 160, 3, seed=5)
        fig = fault_sweep(graph, SPEC, rates=(0.0, 0.1, 0.3), seed=11, hardware=HW)
        assert fig.headers[0] == "rate"
        ditile_slow = [float(row[3]) for row in fig.rows]
        mesh_slow = [float(row[5]) for row in fig.rows]
        assert ditile_slow == sorted(ditile_slow)
        assert mesh_slow == sorted(mesh_slow)
        # Ring + Re-Link degrades no worse than the mesh at every rate.
        for d, m in zip(ditile_slow, mesh_slow):
            assert d <= m + 1e-9


# ---------------------------------------------------------------------------
# Ingest hardening (serving/ingest.py)
# ---------------------------------------------------------------------------
class TestIngestValidation:
    @pytest.mark.parametrize(
        "event, reason",
        [
            (EdgeEvent(float("nan"), 0, 1, "add"), "non-finite"),
            (EdgeEvent(float("inf"), 0, 1, "add"), "non-finite"),
            (EdgeEvent(-1.0, 0, 1, "add"), "negative"),
            (EdgeEvent(1.0, 16, 1, "add"), "outside"),
            (EdgeEvent(1.0, 1, 16, "add"), "outside"),
        ],
    )
    def test_event_fault(self, event, reason):
        assert reason in event_fault(event, 16)

    def test_well_formed(self):
        assert event_fault(EdgeEvent(0.0, 0, 15, "add"), 16) is None

    def test_strict_mode_raises_with_reason(self):
        ingestor = WindowedIngestor(16, window=1.0)
        events = [EdgeEvent(float("nan"), 0, 1, "add")]
        with pytest.raises(ValueError, match="malformed event.*non-finite"):
            list(ingestor.windows(events))

    def test_quarantine_dead_letters_and_continues(self):
        ingestor = WindowedIngestor(16, window=1.0, quarantine=True)
        events = [
            EdgeEvent(0.1, 0, 1, "add"),
            EdgeEvent(float("nan"), 2, 3, "add"),
            EdgeEvent(0.2, 99, 3, "add"),
            EdgeEvent(0.3, 4, 5, "add"),
        ]
        windows = list(ingestor.windows(events))
        assert ingestor.quarantined_events == 2
        assert [r.position for r in ingestor.rejected] == [1, 2]
        assert "non-finite" in ingestor.rejected[0].reason
        assert "outside" in ingestor.rejected[1].reason
        # The two good events still landed in the (single) window.
        assert sum(w.num_events for w in windows) == 2

    def test_poison_cannot_anchor_the_origin(self):
        # A leading malformed event must not set the window origin.
        ingestor = WindowedIngestor(16, window=1.0, quarantine=True)
        events = [
            EdgeEvent(-5.0, 0, 1, "add"),
            EdgeEvent(2.0, 0, 1, "add"),
        ]
        list(ingestor.windows(events))
        assert ingestor.origin == 2.0

    def test_empty_stream_serves_one_window(self):
        ingestor = WindowedIngestor(16, window=1.0, quarantine=True)
        windows = list(ingestor.windows([]))
        assert len(windows) == 1 and windows[0].num_events == 0

    def test_duplicate_timestamps_share_a_window(self):
        ingestor = WindowedIngestor(16, window=1.0, origin=0.0)
        events = [EdgeEvent(0.5, s, s + 1, "add") for s in range(4)]
        windows = list(ingestor.windows(events))
        assert len(windows) == 1
        assert windows[0].num_events == 4
        assert windows[0].snapshot.num_edges == 4


# ---------------------------------------------------------------------------
# Executor shutdown (serving/executor.py)
# ---------------------------------------------------------------------------
class TestExecutorShutdown:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_idempotent(self, workers):
        pool = WindowExecutor(workers)
        pool.shutdown()
        pool.shutdown()  # second call is a no-op
        pool.shutdown(wait=False, cancel_pending=True)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_submit_after_shutdown_raises(self, workers):
        pool = WindowExecutor(workers)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.submit(lambda: 1)

    def test_context_manager_after_explicit_shutdown(self):
        with WindowExecutor(1) as pool:
            assert pool.submit(lambda: 41 + 1).result() == 42
            pool.shutdown()
        # __exit__ re-invoked shutdown without error


# ---------------------------------------------------------------------------
# Serving under chaos (resilience/chaos.py + serving/service.py)
# ---------------------------------------------------------------------------
def _stream():
    return synthetic_event_stream(num_vertices=32, num_events=150, seed=7)


def _window(stream, parts=5):
    first, last = stream.time_span
    return (last - first) / parts


class TestServingResilience:
    def test_clean_run_counters_all_zero(self):
        stream = _stream()
        report = StreamingService(
            config=ServiceConfig(window=_window(stream))
        ).serve(stream, SPEC)
        stats = report.stats
        assert stats.retries == 0
        assert stats.windows_failed == 0
        assert stats.quarantined_events == 0
        assert stats.plan_breaker_hits == 0
        assert stats.breaker_trips == 0
        assert stats.failures == []

    def test_chaos_run_is_byte_identical_across_runs(self):
        stream = _stream()
        schedule = ChaosSchedule(
            seed=3, crash_rate=0.3, latency_rate=0.2, latency_s=0.0005,
            poison_rate=0.03,
        )
        config = ServiceConfig(
            window=_window(stream),
            retry=RetryPolicy(max_attempts=4, backoff_s=0.0),
            quarantine=True,
        )
        first = run_chaos(stream, SPEC, schedule, config=config)
        second = run_chaos(stream, SPEC, schedule, config=config)
        assert first.results_json() == second.results_json()
        assert first.stats.retries > 0  # the schedule actually injected crashes

    def test_chaos_report_byte_identical_across_pipeline_depths(self):
        """Fault injection is keyed by (window, attempt) and cannot see
        dispatch timing, so the deterministic outcome byte-compares
        against the serialized (depth-1) path."""
        stream = synthetic_event_stream(num_vertices=48, num_events=600, seed=5)
        schedule = ChaosSchedule(
            seed=11, crash_rate=0.2, latency_rate=0.1,
            latency_s=0.0002, poison_rate=0.05,
        )
        reports = []
        for depth in (1, 2, 4):
            config = ServiceConfig(
                pipeline_depth=depth,
                retry=RetryPolicy(max_attempts=4, backoff_s=0.0005),
                breaker=BreakerConfig(),
                quarantine=True,
            )
            report = run_chaos(stream, SPEC, schedule, config=config)
            reports.append(report.results_json())
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_chaos_results_match_the_clean_run_for_served_windows(self):
        # Crashes delay windows but never change what they compute.
        stream = _stream()
        clean = StreamingService(
            config=ServiceConfig(window=_window(stream))
        ).serve(stream, SPEC)
        schedule = ChaosSchedule(seed=5, crash_rate=0.4)
        config = ServiceConfig(
            window=_window(stream),
            retry=RetryPolicy(max_attempts=6, backoff_s=0.0),
        )
        report = run_chaos(stream, SPEC, schedule, config=config)
        assert report.stats.windows_failed == 0
        assert [r.execution_cycles for r in report.results] == [
            r.execution_cycles for r in clean.results
        ]

    def test_exhausted_retry_budget_records_failures(self):
        stream = _stream()
        schedule = ChaosSchedule(seed=1, crash_rate=1.0)
        config = ServiceConfig(
            window=_window(stream),
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
        )
        report = run_chaos(stream, SPEC, schedule, config=config)
        outcome = json.loads(report.results_json())
        assert outcome["windows"] == []  # every window failed permanently
        assert outcome["windows_failed"] == report.stats.windows_failed > 0
        assert all(f["attempts"] == 2 for f in outcome["failures"])
        assert all("InjectedFault" in f["error"] for f in outcome["failures"])
        assert outcome["retries"] == report.stats.retries

    def test_crash_without_retry_policy_propagates(self):
        stream = _stream()
        config = ServiceConfig(
            window=_window(stream), chaos=ChaosSchedule(seed=1, crash_rate=1.0)
        )
        with pytest.raises(InjectedFault):
            StreamingService(config=config).serve(stream, SPEC)

    def test_breaker_short_circuits_a_replan_storm(self):
        # A one-entry cache misses on every signature change: a miss storm.
        stream = _stream()
        config = ServiceConfig(
            window=_window(stream, parts=10),
            breaker=BreakerConfig(threshold=1, cooldown=2),
            plan_cache_capacity=1,
        )
        report = StreamingService(config=config).serve(stream, SPEC)
        stats = report.stats
        assert stats.breaker_trips > 0
        assert stats.plan_breaker_hits > 0
        assert "breaker" in [r.plan_decision for r in stats.records]
        # Short-circuited windows are still served.
        assert stats.windows == len(report.results)

    def test_faults_forwarded_to_every_window(self):
        stream = _stream()
        model = DiTileAccelerator(HW)
        faults = FaultModel.sample(HW, link_rate=0.3, seed=11)
        config = ServiceConfig(window=_window(stream), faults=faults)
        online = StreamingService(model, config).serve(stream, SPEC)
        assert all(r.degraded is not None for r in online.results)
        offline = serve_offline(stream, SPEC, model=model, config=config)
        assert [r.execution_cycles for r in online.results] == [
            r.execution_cycles for r in offline
        ]
