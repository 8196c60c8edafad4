"""Fixture-driven tests for the lint rules (DET/UNIT/THR families).

Each ``tests/fixtures/lint/<scope>/bad_*.py`` file is broken in exactly
one way and must trigger exactly its rule; each ``good_*.py`` counterpart
must come back clean.  The in-memory cases then probe the edges of every
rule (alias resolution, seeding variants, set-derived dicts, unit
algebra, lock detection) without touching the disk.
"""

from pathlib import Path

import pytest

from repro.analysis import LintRunner, SourceFile, run_lint

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def lint_fixture(relpath: str):
    return run_lint([FIXTURES / relpath])


def lint_text(text: str, display_path: str):
    """Lint one in-memory module under a synthetic (scope-bearing) path."""
    source = SourceFile.from_text(text, display_path=display_path)
    return LintRunner().run_sources([source])


def fired(report):
    return sorted(f.rule for f in report.findings)


# ---------------------------------------------------------------------------
# Acceptance fixtures: one rule each, exactly
# ---------------------------------------------------------------------------
class TestFixtures:
    @pytest.mark.parametrize(
        "relpath, rule",
        [
            ("accel/bad_mixed_units.py", "UNIT001"),
            ("accel/bad_dropped_conversion.py", "UNIT002"),
            ("core/bad_unseeded_rng.py", "DET002"),
            ("core/bad_wall_clock.py", "DET001"),
            ("core/bad_set_accumulation.py", "DET003"),
            ("serving/bad_unlocked.py", "THR001"),
            ("durability/bad_checkpoint_write.py", "DUR001"),
        ],
    )
    def test_bad_fixture_triggers_exactly_its_rule(self, relpath, rule):
        report = lint_fixture(relpath)
        assert fired(report) == [rule]
        assert report.exit_code == 1

    @pytest.mark.parametrize(
        "relpath",
        [
            "accel/good_units.py",
            "core/good_seeded_rng.py",
            "serving/good_locked.py",
            "durability/good_checkpoint_write.py",
            "suppress/core/justified.py",
        ],
    )
    def test_good_fixture_is_clean(self, relpath):
        report = lint_fixture(relpath)
        assert report.findings == []
        assert report.exit_code == 0

    def test_malformed_suppressions_fixture(self):
        report = lint_fixture("suppress/core/malformed.py")
        assert fired(report) == ["DET001", "NOQA001", "NOQA002", "NOQA003"]


# ---------------------------------------------------------------------------
# DET001 — wall-clock reads
# ---------------------------------------------------------------------------
class TestWallClock:
    def test_aliased_import_is_resolved(self):
        report = lint_text(
            "import time as _t\n\ndef f():\n    return _t.monotonic()\n",
            "core/plan.py",
        )
        assert fired(report) == ["DET001"]

    def test_from_import_is_resolved(self):
        report = lint_text(
            "from time import perf_counter\n\ndef f():\n"
            "    return perf_counter()\n",
            "serving/executor.py",
        )
        assert fired(report) == ["DET001"]

    def test_datetime_now(self):
        report = lint_text(
            "import datetime\n\ndef f():\n"
            "    return datetime.datetime.now()\n",
            "core/plan.py",
        )
        assert fired(report) == ["DET001"]

    def test_stats_module_is_exempt(self):
        report = lint_text(
            "import time\n\ndef f():\n    return time.perf_counter()\n",
            "serving/stats.py",
        )
        assert report.findings == []

    def test_out_of_scope_path_is_exempt(self):
        report = lint_text(
            "import time\n\ndef f():\n    return time.time()\n",
            "scripts/bench.py",
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# DET002 — unseeded randomness
# ---------------------------------------------------------------------------
class TestUnseededRandom:
    def test_default_rng_with_positional_seed_is_clean(self):
        report = lint_text(
            "import numpy as np\nrng = np.random.default_rng(7)\n",
            "core/plan.py",
        )
        assert report.findings == []

    def test_default_rng_seed_keyword_none_is_flagged(self):
        report = lint_text(
            "import numpy as np\nrng = np.random.default_rng(seed=None)\n",
            "core/plan.py",
        )
        assert fired(report) == ["DET002"]

    def test_legacy_numpy_global_generator(self):
        report = lint_text(
            "import numpy as np\nx = np.random.rand(3)\n",
            "graphs/make.py",
        )
        assert fired(report) == ["DET002"]

    def test_stdlib_random(self):
        report = lint_text(
            "import random\nx = random.random()\n",
            "baselines/race.py",
        )
        assert fired(report) == ["DET002"]

    def test_instance_method_named_like_random_is_clean(self):
        report = lint_text(
            "def f(rng):\n    return rng.random()\n",
            "core/plan.py",
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# DET003 — order-sensitive accumulation
# ---------------------------------------------------------------------------
class TestUnorderedAccumulation:
    def test_sum_over_set_comprehension_source(self):
        report = lint_text(
            "def f(xs):\n"
            "    uniq = {x for x in xs}\n"
            "    return sum(w * 0.5 for w in uniq)\n",
            "core/balance.py",
        )
        assert fired(report) == ["DET003"]

    def test_join_over_set(self):
        report = lint_text(
            "def f(names):\n"
            "    pending = set(names)\n"
            "    return ','.join(pending)\n",
            "serving/ingest.py",
        )
        assert fired(report) == ["DET003"]

    def test_values_of_set_derived_dict(self):
        report = lint_text(
            "def f(keys):\n"
            "    live = set(keys)\n"
            "    table = {k: 0.0 for k in live}\n"
            "    return sum(table.values())\n",
            "core/balance.py",
        )
        assert fired(report) == ["DET003"]

    def test_dict_literal_values_are_ordered(self):
        report = lint_text(
            "def f(a, b):\n"
            "    table = {'a': a, 'b': b}\n"
            "    return sum(table.values())\n",
            "core/balance.py",
        )
        assert report.findings == []

    def test_sorted_rebinding_clears_the_taint(self):
        report = lint_text(
            "def f(xs):\n"
            "    uniq = set(xs)\n"
            "    uniq = sorted(uniq)\n"
            "    total = 0.0\n"
            "    for x in uniq:\n"
            "        total += x\n"
            "    return total\n",
            "core/balance.py",
        )
        assert report.findings == []

    def test_loop_without_accumulation_is_clean(self):
        report = lint_text(
            "def f(xs, table):\n"
            "    uniq = set(xs)\n"
            "    for x in uniq:\n"
            "        table[x] = 0\n",
            "core/balance.py",
        )
        assert report.findings == []

    def test_fsum_is_not_flagged(self):
        report = lint_text(
            "import math\n"
            "def f(xs):\n"
            "    uniq = set(xs)\n"
            "    return math.fsum(uniq)\n",
            "core/balance.py",
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# UNIT001-UNIT003 — unit consistency
# ---------------------------------------------------------------------------
class TestUnits:
    def test_cycles_compared_to_seconds(self):
        report = lint_text(
            "def f(compute_cycles, budget_seconds):\n"
            "    return compute_cycles < budget_seconds\n",
            "accel/pipeline.py",
        )
        assert fired(report) == ["UNIT001"]

    def test_cycles_over_hz_is_seconds(self):
        report = lint_text(
            "def latency_seconds(total_cycles, clock_hz):\n"
            "    return total_cycles / clock_hz\n",
            "accel/pipeline.py",
        )
        assert report.findings == []

    def test_augmented_add_mixing_units(self):
        report = lint_text(
            "def f(total_pj, extra_joules):\n"
            "    total_pj += extra_joules\n"
            "    return total_pj\n",
            "accel/energy2.py",
        )
        assert fired(report) == ["UNIT001"]

    def test_per_ratio_cancellation(self):
        report = lint_text(
            "def traffic_bytes(num_edges, bytes_per_edge):\n"
            "    total_edges = num_edges\n"
            "    return total_edges * bytes_per_edge\n",
            "accel/dram.py",
        )
        assert report.findings == []

    def test_return_unit_mismatch(self):
        report = lint_text(
            "def transfer_cycles(window_seconds):\n"
            "    return window_seconds\n",
            "accel/noc2.py",
        )
        assert fired(report) == ["UNIT003"]

    def test_conversion_through_named_constant(self):
        report = lint_text(
            "JOULES_PER_PJ = 1e-12\n"
            "def f(total_pj):\n"
            "    total_joules = total_pj * JOULES_PER_PJ\n"
            "    return total_joules\n",
            "accel/energy2.py",
        )
        assert report.findings == []

    def test_out_of_scope_path_is_exempt(self):
        report = lint_text(
            "def f(a_pj, b_joules):\n    return a_pj + b_joules\n",
            "serving/service.py",
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# THR001 — unlocked cross-thread mutation
# ---------------------------------------------------------------------------
_THREADED = """
import threading

class Sink:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []
        self._t = threading.Thread(target=self._run)

    def _run(self):
        {run_body}

    def publish(self, item):
        {publish_body}
"""


def _threaded(run_body: str, publish_body: str):
    text = _THREADED.format(run_body=run_body, publish_body=publish_body)
    return lint_text(text, "serving/sink.py")


class TestThreadSafety:
    def test_unlocked_cross_thread_mutation(self):
        report = _threaded(
            "self.items.append(1)", "self.items.append(2)"
        )
        assert fired(report) == ["THR001"]
        assert "Sink.items" in report.findings[0].message

    def test_locked_thread_side_write_is_clean(self):
        report = _threaded(
            "with self._lock:\n            self.items.append(1)",
            "with self._lock:\n            self.items.append(2)",
        )
        assert report.findings == []

    def test_single_writer_method_is_exempt(self):
        report = _threaded("self.items.append(1)", "return len(self.items)")
        assert report.findings == []

    def test_justified_noqa_suppresses_the_project_finding(self):
        report = _threaded(
            "self.items.append(1)"
            "  # repro: noqa[THR001] publish runs only after the join",
            "self.items.append(2)",
        )
        assert report.findings == []

    def test_out_of_scope_path_is_exempt(self):
        text = _THREADED.format(
            run_body="self.items.append(1)", publish_body="self.items.append(2)"
        )
        assert lint_text(text, "accel/sink.py").findings == []

    def test_executor_submit_counts_as_thread_root(self):
        report = lint_text(
            "class Pool:\n"
            "    def __init__(self, executor):\n"
            "        self.done = []\n"
            "        self._executor = executor\n"
            "    def kick(self):\n"
            "        self._executor.submit(self._work)\n"
            "    def _work(self):\n"
            "        self.done.append(1)\n"
            "    def flush(self):\n"
            "        self.done.clear()\n",
            "serving/pool.py",
        )
        assert fired(report) == ["THR001"]

    def test_mutation_unreachable_from_threads_is_clean(self):
        report = lint_text(
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self.items = []\n"
            "    def a(self):\n"
            "        self.items.append(1)\n"
            "    def b(self):\n"
            "        self.items.append(2)\n",
            "serving/plain.py",
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# DUR001 — fsync-then-rename publication
# ---------------------------------------------------------------------------
class TestAtomicPublish:
    def test_in_place_write_fires(self):
        report = lint_text(
            'def save(path, blob):\n'
            '    with open(path, "wb") as fh:\n'
            "        fh.write(blob)\n",
            "durability/store.py",
        )
        assert fired(report) == ["DUR001"]
        assert "os.replace" in report.findings[0].message

    def test_rename_without_fsync_fires(self):
        report = lint_text(
            "import os\n\n"
            "def save(path, blob):\n"
            '    with open(path + ".tmp", "wb") as fh:\n'
            "        fh.write(blob)\n"
            '    os.replace(path + ".tmp", path)\n',
            "durability/store.py",
        )
        assert fired(report) == ["DUR001"]
        assert "fsync" in report.findings[0].message

    def test_full_protocol_is_clean(self):
        report = lint_text(
            "import os\n\n"
            "def save(path, blob):\n"
            '    with open(path + ".tmp", "wb") as fh:\n'
            "        fh.write(blob)\n"
            "        fh.flush()\n"
            "        os.fsync(fh.fileno())\n"
            '    os.replace(path + ".tmp", path)\n',
            "durability/store.py",
        )
        assert report.findings == []

    def test_append_and_read_modes_are_exempt(self):
        report = lint_text(
            'def tail(path, record):\n'
            '    with open(path, "ab") as fh:\n'
            "        fh.write(record)\n"
            '    with open(path, "rb") as fh:\n'
            "        return fh.read()\n",
            "durability/segment.py",
        )
        assert report.findings == []

    def test_path_open_method_is_matched(self):
        report = lint_text(
            "def save(path, blob):\n"
            '    with path.open("wb") as fh:\n'
            "        fh.write(blob)\n",
            "durability/store.py",
        )
        assert fired(report) == ["DUR001"]

    def test_keyword_mode_is_matched(self):
        report = lint_text(
            "def save(path, blob):\n"
            '    with open(path, mode="w") as fh:\n'
            "        fh.write(blob)\n",
            "durability/store.py",
        )
        assert fired(report) == ["DUR001"]

    def test_out_of_scope_path_is_exempt(self):
        report = lint_text(
            'def save(path, blob):\n'
            '    with open(path, "wb") as fh:\n'
            "        fh.write(blob)\n",
            "serving/store.py",
        )
        assert report.findings == []
