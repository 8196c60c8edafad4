import unittest

from perfbench.pacing import Pacer, lag_growth, percentile, samples_beyond


class FakeClock:
    """A clock that only moves when something sleeps or work is charged."""

    def __init__(self, now: float = 100.0):
        self.now = now
        self.sleeps = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class PacerTest(unittest.TestCase):
    def test_events_are_released_at_their_due_times(self):
        clock = FakeClock()
        pacer = Pacer(["a", "b", "c"], [0.0, 0.5, 0.5], clock=clock, sleep=clock.sleep)
        pacer.start()
        self.assertEqual(list(pacer), ["a", "b", "c"])
        self.assertEqual(pacer.pulls, [100.0, 100.5, 100.5])
        self.assertEqual(clock.sleeps, [0.5])
        self.assertEqual(pacer.lags(), [0.0, 0.0, 0.0])
        self.assertEqual(pacer.released, 3)
        self.assertEqual(pacer.schedule_end, 100.5)
        self.assertEqual(pacer.exhausted_at, 100.5)

    def test_a_slow_consumer_is_late_and_due_times_do_not_shift(self):
        clock = FakeClock()
        pacer = Pacer(list("abcd"), [0.0, 1.0, 2.0, 3.0], clock=clock, sleep=clock.sleep)
        pacer.start()
        for _ in pacer:
            clock.now += 1.5  # each event takes longer than the interval
        # Pulled at 0, 1.5, 3.0, 4.5 against due 0, 1, 2, 3.
        self.assertEqual(pacer.lags(), [0.0, 0.5, 1.0, 1.5])
        self.assertEqual(clock.sleeps, [])

    def test_max_rate_schedule_never_sleeps(self):
        clock = FakeClock()
        pacer = Pacer(list(range(5)), [0.0] * 5, clock=clock, sleep=clock.sleep)
        pacer.start()
        for _ in pacer:
            clock.now += 0.25
        self.assertEqual(clock.sleeps, [])
        self.assertEqual(pacer.lags(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_iteration_needs_a_fixed_start_and_a_valid_schedule(self):
        with self.assertRaises(RuntimeError):
            list(Pacer([1], [0.0]))
        with self.assertRaises(ValueError):
            Pacer([1, 2], [0.0])
        with self.assertRaises(ValueError):
            Pacer([1, 2], [1.0, 0.5])

    def test_lag_growth_separates_backlog_from_jitter(self):
        self.assertEqual(lag_growth([0.01, 0.02] * 40), 0.0)
        growing = [0.01 * i for i in range(80)]
        self.assertAlmostEqual(lag_growth(growing), 0.6)
        self.assertEqual(lag_growth([5.0, 1.0]), 0.0)  # too few to judge


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_returns_a_measured_sample(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(percentile(values, 0.5), 3.0)
        self.assertEqual(percentile(values, 0.0), 1.0)
        self.assertEqual(percentile(values, 1.0), 5.0)
        self.assertEqual(percentile(values, 0.95), 5.0)
        self.assertEqual(percentile([1.0, 2.0, 3.0, 4.0], 0.5), 2.0)  # lower middle
        self.assertEqual(percentile(list(range(1, 201)), 0.95), 190)

    def test_tail_percentile_needs_ten_samples_beyond_it(self):
        self.assertEqual(samples_beyond(200, 0.95), 10)
        self.assertEqual(samples_beyond(199, 0.95), 9)
        self.assertEqual(samples_beyond(150, 0.95), 7)
        self.assertEqual(percentile(list(range(200)), 0.95, min_beyond=10), 189)
        with self.assertRaisesRegex(ValueError, "9 beyond"):
            percentile(list(range(199)), 0.95, min_beyond=10)

    def test_rejects_empty_samples_and_bad_quantiles(self):
        with self.assertRaises(ValueError):
            percentile([], 0.5)
        with self.assertRaises(ValueError):
            percentile([1.0], 1.5)


if __name__ == "__main__":
    unittest.main()
