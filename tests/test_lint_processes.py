"""Fixture-driven and in-memory tests for the MP001 and MP003
process-safety rules, which run on the shared CFG/dataflow/call-graph
engine."""

from pathlib import Path

import pytest

from repro.analysis import LintRunner, SourceFile, run_lint

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def lint_fixture(relpath: str):
    return run_lint([FIXTURES / relpath])


def lint_text(text: str, display_path: str = "dist/module.py"):
    source = SourceFile.from_text(text, display_path=display_path)
    return LintRunner().run_sources([source])


def fired(report):
    return sorted(f.rule for f in report.findings)


# ---------------------------------------------------------------------------
# Acceptance fixtures
# ---------------------------------------------------------------------------
class TestFixtures:
    @pytest.mark.parametrize(
        "relpath, expected",
        [
            ("dist/bad_fork_after_threads.py", ["MP001"]),
            ("dist/bad_unbounded_queue.py", ["MP003"] * 2),
        ],
    )
    def test_bad_fixture_fires_exactly_its_rule(self, relpath, expected):
        report = lint_fixture(relpath)
        assert fired(report) == expected
        assert report.exit_code == 1

    @pytest.mark.parametrize(
        "relpath",
        [
            "dist/good_fork_before_threads.py",
            "dist/good_bounded_queue.py",
        ],
    )
    def test_good_fixture_is_clean(self, relpath):
        report = lint_fixture(relpath)
        assert report.findings == []
        assert report.exit_code == 0


# ---------------------------------------------------------------------------
# MP001 — fork after thread creation
# ---------------------------------------------------------------------------
class TestForkAfterThreads:
    def test_fork_reached_transitively_is_flagged(self):
        report = lint_text(
            "import multiprocessing\n"
            "import threading\n"
            "\n"
            "def _spawn(shard):\n"
            "    proc = multiprocessing.Process(target=shard)\n"
            "    proc.start()\n"
            "\n"
            "def serve(shards):\n"
            "    watcher = threading.Thread(target=print)\n"
            "    watcher.start()\n"
            "    for shard in shards:\n"
            "        _spawn(shard)\n"
        )
        assert fired(report) == ["MP001"]

    def test_fork_before_thread_on_every_path_is_clean(self):
        report = lint_text(
            "import multiprocessing\n"
            "import threading\n"
            "\n"
            "def serve(shard):\n"
            "    proc = multiprocessing.Process(target=shard)\n"
            "    proc.start()\n"
            "    watcher = threading.Thread(target=print)\n"
            "    watcher.start()\n"
        )
        assert report.findings == []

    def test_thread_on_one_branch_only_still_flags(self):
        # The join over branches is may-analysis: any path with a live
        # thread pool before the fork is unsafe.
        report = lint_text(
            "import multiprocessing\n"
            "import threading\n"
            "\n"
            "def serve(shard, watch):\n"
            "    if watch:\n"
            "        threading.Thread(target=print).start()\n"
            "    multiprocessing.Process(target=shard).start()\n"
        )
        assert fired(report) == ["MP001"]

    def test_outside_process_scope_is_ignored(self):
        report = lint_text(
            "import multiprocessing\n"
            "import threading\n"
            "\n"
            "def serve(shard):\n"
            "    threading.Thread(target=print).start()\n"
            "    multiprocessing.Process(target=shard).start()\n",
            display_path="accel/kernels.py",
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# MP003 — queue discipline
# ---------------------------------------------------------------------------
class TestQueueDiscipline:
    def test_zero_maxsize_is_unbounded(self):
        report = lint_text(
            "import multiprocessing\n"
            "\n"
            "def make(ctx):\n"
            "    return ctx.Queue(maxsize=0)\n"
        )
        assert fired(report) == ["MP003"]

    def test_simple_queue_is_always_flagged(self):
        report = lint_text(
            "import multiprocessing\n"
            "\n"
            "def make(ctx):\n"
            "    return ctx.SimpleQueue()\n"
        )
        assert fired(report) == ["MP003"]

    def test_get_with_block_false_is_clean(self):
        report = lint_text(
            "def drain(q):\n    return q.get(block=False)\n"
        )
        assert report.findings == []

    def test_get_nowait_is_clean(self):
        report = lint_text(
            "def drain(q):\n    return q.get_nowait()\n"
        )
        assert report.findings == []


# ---------------------------------------------------------------------------
# Suppression integration
# ---------------------------------------------------------------------------
class TestSuppression:
    def test_justified_noqa_suppresses_mp001(self):
        report = lint_text(
            "import multiprocessing\n"
            "import threading\n"
            "\n"
            "def serve(shard):\n"
            "    threading.Thread(target=print).start()\n"
            "    multiprocessing.Process(target=shard).start()"
            "  # repro: noqa[MP001] child re-execs from a clean entry point\n"
        )
        assert report.findings == []
