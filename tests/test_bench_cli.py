"""End-to-end tests for ``repro bench`` (list/run/compare, exit codes).

The run tests use the real case catalog on the smallest dataset
(``planner/tiling[pm]``) with ``--repeats 1 --warmup 0`` so they stay
fast while still exercising graph synthesis and the full record path.
"""

import json
from pathlib import Path

import pytest

from repro.bench import EXIT_CLEAN, EXIT_REGRESSIONS, EXIT_USAGE
from repro.cli import main

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
SMOKE_BASELINE = BASELINES / "smoke.json"

FAST = ["--case", "planner/tiling[pm]", "--repeats", "1", "--warmup", "0"]


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    """One fresh smoke-suite record, shared by the tests that read it."""
    path = tmp_path_factory.mktemp("smoke") / "smoke.json"
    assert main(["bench", "run", "--suite", "smoke", "--json", str(path)]) == 0
    return path


def _run(tmp_path, stem):
    path = tmp_path / f"{stem}.json"
    assert main(["bench", "run", *FAST, "--json", str(path)]) == EXIT_CLEAN
    return path


class TestList:
    def test_catalog(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "planner/tiling[pm]" in out
        assert "serving/throughput[smoke]" in out
        assert "[smoke,full]" in out or "[full,smoke]" in out


class TestRun:
    def test_writes_record(self, tmp_path, capsys):
        path = _run(tmp_path, "record")
        out = capsys.readouterr().out
        assert "record written to" in out
        record = json.loads(path.read_text())
        assert record["schema"] == 1
        (case,) = record["cases"]
        assert case["name"] == "planner/tiling[pm]"
        assert case["counters"]["alpha"] >= 1

    def test_two_runs_identical_counters(self, tmp_path):
        """Acceptance: back-to-back runs agree on every deterministic counter."""
        first = json.loads(_run(tmp_path, "first").read_text())
        second = json.loads(_run(tmp_path, "second").read_text())
        for a, b in zip(first["cases"], second["cases"]):
            assert a["name"] == b["name"]
            assert a["counters"] == b["counters"]

    def test_update_baselines(self, tmp_path, capsys):
        code = main(
            ["bench", "run", *FAST, "--baseline-dir", str(tmp_path), "--update-baselines"]
        )
        assert code == EXIT_CLEAN
        assert "baseline updated" in capsys.readouterr().out
        # explicit --case selection has no suite, so the baseline is "custom"
        assert (tmp_path / "custom.json").exists()

    def test_unknown_case_is_usage_error(self, capsys):
        assert main(["bench", "run", "--case", "no/such[case]"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().out


class TestCompare:
    def test_self_compare_clean(self, tmp_path, capsys):
        path = _run(tmp_path, "base")
        code = main(["bench", "compare", str(path), str(path)])
        assert code == EXIT_CLEAN
        assert "OK" in capsys.readouterr().out

    def test_injected_regression_fails(self, tmp_path, capsys):
        """Acceptance: a perturbed deterministic counter flips the gate."""
        base = _run(tmp_path, "base")
        record = json.loads(base.read_text())
        record["cases"][0]["counters"]["alpha"] += 1
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(record))
        code = main(["bench", "compare", str(base), str(drifted)])
        assert code == EXIT_REGRESSIONS
        assert "FAIL" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        path = _run(tmp_path, "base")
        capsys.readouterr()  # drop the run output
        code = main(["bench", "compare", str(path), str(path), "--format", "json"])
        assert code == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == EXIT_CLEAN
        assert payload["deltas"] == []

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["bench", "compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        )
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().out

    def test_committed_smoke_baseline_matches_fresh_run(self, smoke_record):
        """The committed smoke baseline gates a fresh smoke run cleanly."""
        code = main(["bench", "compare", str(SMOKE_BASELINE), str(smoke_record)])
        assert code == EXIT_CLEAN

    @pytest.mark.parametrize(
        "record", ["fresh", "smoke.json", "full.json"]
    )
    def test_every_timing_is_in_seconds(self, record, smoke_record):
        """`bench compare` reads every timing as lower-is-better, so each
        one is a duration; a rate such as events/s would report a speed-up
        as a slowdown."""
        path = smoke_record if record == "fresh" else BASELINES / record
        for case in json.loads(path.read_text())["cases"]:
            for metric in case["timings"]:
                assert metric.endswith("_s"), (case["name"], metric)


class TestRunTrace:
    def test_trace_flag_writes_per_case_artifacts(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main(["bench", "run", *FAST, "--trace", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        from repro.obs import validate_trace_file

        trace = trace_dir / "planner_tiling_pm.trace.json"
        assert validate_trace_file(trace) == []
        assert (trace_dir / "planner_tiling_pm.phases.json").exists()
        assert (trace_dir / "planner_tiling_pm.spans.jsonl").exists()

    def test_traced_record_matches_untraced_record(self, tmp_path):
        plain = tmp_path / "plain.json"
        traced = tmp_path / "traced.json"
        assert main(["bench", "run", *FAST, "--json", str(plain)]) == 0
        assert main(
            ["bench", "run", *FAST, "--json", str(traced),
             "--trace", str(tmp_path / "tr")]
        ) == 0
        import json as _json

        a = _json.loads(plain.read_text())["cases"][0]["counters"]
        b = _json.loads(traced.read_text())["cases"][0]["counters"]
        assert a == b
