"""The percentile/median convention of repro.serving.stats, pinned down.

Nearest-rank, uniformly: ``sorted(values)[max(ceil(q * n), 1) - 1]``,
``0.0`` for an empty sample, the sample itself for ``n == 1``, and ``q``
clamped into ``[0, 1]``.  These tests are the convention's contract —
see the satellite note in ``docs/observability.md``.
"""

import pytest

from repro.serving.stats import ServiceStats, WindowRecord, _percentile, median


class TestPercentileConvention:
    def test_empty_sample_is_zero(self):
        for q in (0.0, 0.5, 0.95, 1.0):
            assert _percentile([], q) == 0.0

    def test_single_sample_returned_for_every_q(self):
        for q in (0.0, 0.01, 0.5, 0.95, 1.0):
            assert _percentile([7.5], q) == 7.5

    def test_nearest_rank_odd_sample(self):
        values = [5.0, 1.0, 9.0]
        assert _percentile(values, 0.5) == 5.0
        assert _percentile(values, 0.95) == 9.0
        assert _percentile(values, 1.0) == 9.0

    def test_nearest_rank_even_sample_takes_lower_middle(self):
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_q_zero_is_minimum(self):
        assert _percentile([3.0, 1.0, 2.0], 0.0) == 1.0

    def test_q_clamped_outside_unit_interval(self):
        values = [1.0, 2.0, 3.0]
        assert _percentile(values, -0.5) == 1.0
        assert _percentile(values, 1.5) == 3.0

    def test_result_is_always_a_measured_sample(self):
        values = [0.3, 1.7, 2.2, 9.1, 4.4]
        for q in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
            assert _percentile(values, q) in values

    def test_input_order_irrelevant(self):
        assert _percentile([9.0, 1.0, 5.0], 0.5) == _percentile(
            [1.0, 5.0, 9.0], 0.5
        )

    def test_median_helper_matches_p50(self):
        values = [4.0, 8.0, 6.0, 2.0]
        assert median(values) == _percentile(values, 0.5)
        assert median([]) == 0.0
        assert median([3.0]) == 3.0


class TestServiceStatsTelemetry:
    def _stats_with_latencies(self, latencies):
        stats = ServiceStats()
        for i, latency in enumerate(latencies):
            stats.records.append(
                WindowRecord(
                    index=i,
                    num_events=1,
                    latency_s=latency,
                    plan_decision="hit",
                )
            )
        return stats

    def test_latency_percentiles_follow_convention(self):
        stats = self._stats_with_latencies([0.030, 0.010, 0.020])
        assert stats.p50_latency_s == 0.020
        assert stats.p95_latency_s == 0.030
        empty = self._stats_with_latencies([])
        assert empty.p50_latency_s == 0.0
        assert empty.p95_latency_s == 0.0
        assert empty.max_latency_s == 0.0

    def test_queue_depth_percentile(self):
        stats = ServiceStats()
        for depth in (0, 1, 5, 2, 0, 0, 0, 0, 0, 0):
            stats.record_queue_depth(depth)
        assert stats.max_queue_depth == 5
        assert stats.p95_queue_depth == 5.0
        assert ServiceStats().p95_queue_depth == 0.0

    def test_phase_time_fields_default_and_export(self):
        stats = ServiceStats()
        assert stats.plan_resolve_s == 0.0
        assert stats.execute_s == 0.0
        assert stats.p95_queue_depth == 0.0

    def test_summary_reports_phase_time_split(self):
        stats = ServiceStats()
        stats.plan_resolve_s = 0.5
        stats.execute_s = 0.125
        summary = stats.summary()
        assert "phase time" in summary
        assert "plan=500.00 ms" in summary
        assert "execute=125.00 ms" in summary
