import json
import re
import tempfile
import unittest
from pathlib import Path

from perfbench.layers import TARGETS, LayerTracer, layer_metrics, per_layer_table
from perfbench.manifest import END_TO_END, manifest
from perfbench.workloads import Workload, durable_root, paced_stream

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _originals():
    """The raw attribute behind every wrapped entry point."""
    import importlib

    raw = []
    for target in TARGETS:
        owner = importlib.import_module(target.module)
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw.append(vars(owner)[attr])
    return raw


class ManifestTest(unittest.TestCase):
    def test_metric_names_and_units_are_well_formed_and_unique(self):
        metrics = END_TO_END + per_layer_table()
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for metric in metrics:
            self.assertTrue(NAME.fullmatch(metric["name"]), metric["name"])
            self.assertTrue(UNIT.fullmatch(metric["unit"]), metric["unit"])
            self.assertIn(metric["better"], ("higher", "lower"))
        for metric in END_TO_END:
            self.assertLessEqual(metric["bound"], 0.25)

    def test_committed_benchmark_json_matches_the_tables(self):
        committed = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(committed, manifest())


class TracedServeTest(unittest.TestCase):
    """One small durable serve under the tracer."""

    @classmethod
    def setUpClass(cls):
        from repro.core.plan import DGNNSpec
        from repro.graphs.continuous import window_index
        from repro.serving import synthetic_event_stream
        from perfbench.pacing import Pacer
        from perfbench.workloads import build_service

        cls.originals = _originals()
        stream = synthetic_event_stream(num_vertices=128, num_events=3000, seed=3)
        workload = Workload("tiny", "test", window=300.0, origin=None, durable=True)
        first = stream.time_span[0]
        windows = [window_index(e.time, first, 300.0) for e in stream.events]
        cls.tracer = LayerTracer(windows)
        with tempfile.TemporaryDirectory() as parent, durable_root(Path(parent)) as root:
            service = build_service(workload, root)
            pacer = Pacer(stream.events, [0.0] * len(stream.events))
            with cls.tracer.active():
                pacer.start()
                cls.report = service.serve(paced_stream(stream, pacer), DGNNSpec.classic(16, 16))
        cls.released = pacer.released
        cls.total = len(stream.events)

    def test_every_layer_is_traced_and_every_span_has_a_window(self):
        names = {s.name for s in self.tracer.spans}
        self.assertEqual(names, {t.name for t in TARGETS})
        self.assertTrue(all(s.window is not None for s in self.tracer.spans))
        self.assertEqual(self.released, self.total)

    def test_nested_spans_share_their_parents_window(self):
        by_id = {s.id: s for s in self.tracer.spans}
        nested = [s for s in self.tracer.spans if s.parent is not None]
        self.assertTrue(nested)
        for span in nested:
            self.assertEqual(span.window, by_id[span.parent].window)

    def test_wal_appends_aggregate_to_one_span_per_window(self):
        appends = [s for s in self.tracer.spans if s.name == "commit.wal_append"]
        self.assertEqual(sum(s.calls for s in appends), self.total)
        self.assertEqual(len(appends), len({s.window for s in appends}))

    def test_layer_metrics_cover_the_per_layer_table(self):
        metrics = layer_metrics(self.tracer.spans, self.report.stats, self.report.results, 1.0, 0)
        expected = {m["name"] for m in per_layer_table()} - {"trace.overhead_frac"}
        self.assertEqual(set(metrics), expected)
        self.assertEqual(metrics["plan.hit_rate"], self.report.stats.plan_hit_rate)
        self.assertGreater(metrics["commit.checkpoint_bytes"], 0)

    def test_wrappers_are_restored_after_the_traced_run(self):
        self.assertEqual(_originals(), self.originals)

    def test_wrappers_are_restored_when_the_traced_code_raises(self):
        from repro.serving import executor

        original = executor.build_costs
        with self.assertRaises(ZeroDivisionError):
            with LayerTracer().active():
                self.assertIsNot(executor.build_costs, original)
                1 / 0
        self.assertEqual(_originals(), self.originals)


class DurableRootTest(unittest.TestCase):
    def test_root_is_removed_even_when_the_run_raises(self):
        with tempfile.TemporaryDirectory() as parent:
            with self.assertRaises(RuntimeError):
                with durable_root(Path(parent)) as root:
                    (root / "wal").mkdir()
                    (root / "wal" / "seg").write_bytes(b"x")
                    raise RuntimeError("serve failed")
            self.assertFalse(root.exists())
            self.assertEqual(list(Path(parent).iterdir()), [])


if __name__ == "__main__":
    unittest.main()
