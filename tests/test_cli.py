"""Unit tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

LINT_FIXTURES = Path(__file__).parent / "fixtures" / "lint"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "PubMed" in out and "Flicker" in out
        assert "2302925" in out  # published Flickr vertex count

    def test_plan(self, capsys):
        assert main(["plan", "TW", "--scale", "0.02", "--snapshots", "3"]) == 0
        out = capsys.readouterr().out
        assert "alpha=" in out
        assert "balance:" in out

    def test_compare(self, capsys):
        assert main(
            ["compare", "TW", "--scale", "0.02", "--snapshots", "3"]
        ) == 0
        out = capsys.readouterr().out
        for name in ("ReaDy", "DGNN-Booster", "RACE", "MEGA", "DiTile-DGNN"):
            assert name in out
        assert "1.00x" in out  # DiTile normalized to itself

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "77.8" in out

    def test_reproduce_single_figure(self, capsys):
        assert main(
            ["reproduce", "figure14", "--scale", "0.02"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 14" in out

    def test_reproduce_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "figure99"])

    def test_serve_synthetic(self, capsys):
        assert main(
            ["serve", "--events", "1500", "--vertices", "64",
             "--hidden-dim", "16", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "windows served" in out
        assert "hit rate" in out
        assert "events/s" in out
        assert "ingest queue" in out

    def test_serve_dataset_replay(self, capsys):
        assert main(
            ["serve", "TW", "--scale", "0.02", "--snapshots", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "Twitter[events]" in out
        assert "windows served     3" in out  # T-1 transitions

    def test_serve_inline_workers(self, capsys):
        assert main(
            ["serve", "--events", "600", "--vertices", "32",
             "--hidden-dim", "16", "--workers", "0", "--window", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "windows served" in out

    def test_serve_rejects_bad_dataset(self):
        with pytest.raises(KeyError):
            main(["serve", "no-such-dataset"])

    def test_serve_pipeline_depth_flag(self, capsys):
        assert main(
            ["serve", "--events", "600", "--vertices", "32",
             "--hidden-dim", "16", "--pipeline-depth", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "depth=4" in out

    def _serve_results(self, tmp_path, name, *extra):
        out = tmp_path / f"{name}.json"
        assert main(
            ["serve", "--events", "800", "--vertices", "32", "--seed", "7",
             "--hidden-dim", "16", "--results-json", str(out), *extra]
        ) == 0
        return out.read_bytes()

    def test_results_json_byte_identical_across_depths(
        self, tmp_path, capsys
    ):
        """The CI pipeline-parity gate in miniature: per-window result
        dumps byte-compare across pipeline depths and worker counts."""
        reference = self._serve_results(tmp_path, "ref", "--pipeline-depth", "1")
        payload = json.loads(reference)
        windows = payload["windows"]
        assert len(windows) > 4
        for entry in windows:
            assert {"index", "execution_cycles", "energy_joules",
                    "plan_decision"} <= entry.keys()
        assert reference == self._serve_results(
            tmp_path, "deep", "--pipeline-depth", "4"
        )
        assert reference == self._serve_results(
            tmp_path, "inline", "--pipeline-depth", "2", "--workers", "0"
        )
        capsys.readouterr()

    def test_results_json_is_the_serving_report_json(self, tmp_path, capsys):
        """``--results-json`` writes ``ServingReport.results_json()``."""
        from repro.core.plan import DGNNSpec
        from repro.serving import (
            ServiceConfig,
            StreamingService,
            synthetic_event_stream,
        )

        written = self._serve_results(tmp_path, "cli")
        capsys.readouterr()
        stream = synthetic_event_stream(num_vertices=32, num_events=800, seed=7)
        first, last = stream.time_span
        report = StreamingService(
            config=ServiceConfig(window=(last - first) / 32.0)
        ).serve(stream, DGNNSpec.classic(16, 16))
        assert written == (report.results_json() + "\n").encode()

    @pytest.mark.parametrize(
        "flag, field", [("--plan-cache-capacity", "plan_cache_capacity")]
    )
    def test_bad_plan_cache_setting_leaves_the_wal_directory_unused(
        self, tmp_path, capsys, flag, field
    ):
        wal = tmp_path / "wal"
        args = ["serve", "--vertices", "64", "--events", "500", "--wal", str(wal)]
        with pytest.raises(ValueError, match=field):
            main([*args, flag, "0"])
        assert not wal.exists()
        assert main(args) == 0  # the corrected rerun may use the directory
        capsys.readouterr()

    def test_chaos_serve_json_is_the_results_json(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        assert main(
            ["chaos", "serve", "--events", "600", "--vertices", "32",
             "--hidden-dim", "16", "--crash-rate", "0.3", "--json", str(out)]
        ) == 0
        printed = capsys.readouterr().out
        assert printed.count("windows served") == 1  # one summary
        assert "resilience" in printed
        outcome = json.loads(out.read_text())
        assert set(outcome) == {
            "windows", "retries", "windows_failed", "quarantined_events",
            "breaker_trips", "plan_breaker_hits", "failures",
        }
        assert outcome["retries"] > 0 and outcome["windows_failed"] == 0

    @pytest.mark.parametrize(
        "flag",
        [
            ["--wal", "wal"],
            ["--resume"],
            ["--checkpoint-interval", "5"],
            ["--wal-retain", "2"],
            ["--kill-after-commit", "1"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_chaos_recover_rejects_durability_flags(self, flag, capsys):
        """The sweep owns each kill point's WAL directory, so the
        durability flags are a usage error rather than silently ignored."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["chaos", "recover", "--events", "400", *flag]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestLint:
    def test_clean_path_exits_zero(self, capsys):
        target = LINT_FIXTURES / "accel" / "good_units.py"
        assert main(["lint", str(target)]) == 0
        out = capsys.readouterr().out
        assert "clean: 1 files, 0 findings" in out

    def test_findings_exit_one(self, capsys):
        target = LINT_FIXTURES / "accel" / "bad_mixed_units.py"
        assert main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        assert "UNIT001" in out
        assert "1 finding in 1 file" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "does/not/exist.py"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, capsys):
        target = LINT_FIXTURES / "accel" / "good_units.py"
        assert main(["lint", str(target), "--select", "NOPE999"]) == 2
        out = capsys.readouterr().out
        assert "error:" in out and "NOPE999" in out

    def test_select_restricts_to_named_rule(self, capsys):
        target = LINT_FIXTURES / "core"
        assert main(["lint", str(target), "--select", "DET002"]) == 1
        out = capsys.readouterr().out
        assert "DET002" in out
        assert "DET001" not in out

    def test_json_format(self, capsys):
        target = LINT_FIXTURES / "serving" / "bad_unlocked.py"
        assert main(["lint", str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["summary"]["by_rule"] == {"THR001": 1}

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003",
                        "UNIT001", "UNIT002", "UNIT003", "THR001",
                        "DUR001"):
            assert rule_id in out

    def test_sarif_format(self, capsys):
        target = LINT_FIXTURES / "durability" / "bad_checkpoint_write.py"
        assert main(["lint", str(target), "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "DUR001" in rule_ids
        results = run["results"]
        assert all(r["ruleId"] == "DUR001" for r in results)
        assert all(r["level"] == "error" for r in results)
        first = results[0]["locations"][0]["physicalLocation"]
        assert first["region"]["startLine"] >= 1
        assert results[0]["ruleIndex"] == rule_ids.index("DUR001")

    def test_sarif_clean_run_has_no_results(self, capsys):
        target = LINT_FIXTURES / "durability" / "good_checkpoint_write.py"
        assert main(["lint", str(target), "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []

    def test_sarif_out_exports_from_the_gating_run(self, tmp_path, capsys):
        """--sarif-out writes the SARIF report next to the text gate in
        one invocation (CI runs lint once, not twice)."""
        target = LINT_FIXTURES / "durability" / "bad_checkpoint_write.py"
        out = tmp_path / "reports" / "lint.sarif"
        assert main(["lint", str(target), "--sarif-out", str(out)]) == 1
        text = capsys.readouterr().out
        assert "DUR001" in text  # the human-readable gate output
        payload = json.loads(out.read_text())
        assert payload["version"] == "2.1.0"
        assert any(
            r["ruleId"] == "DUR001" for r in payload["runs"][0]["results"]
        )

    def test_sarif_out_clean_run_still_writes(self, tmp_path, capsys):
        target = LINT_FIXTURES / "durability" / "good_checkpoint_write.py"
        out = tmp_path / "lint.sarif"
        assert main(["lint", str(target), "--sarif-out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["runs"][0]["results"] == []

    def test_explain_prints_rule_doc_and_example(self, capsys):
        assert main(["lint", "--explain", "DUR001"]) == 0
        out = capsys.readouterr().out
        assert "DUR001" in out
        assert "os.replace" in out
        assert "noqa[DUR001]" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert main(["lint", "--explain", "dur001"]) == 0
        assert "DUR001" in capsys.readouterr().out

    def test_explain_deleted_process_rule_exits_two(self, capsys):
        assert main(["lint", "--explain", "MP001"]) == 2
        assert "unknown rule MP001" in capsys.readouterr().out

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--explain", "NOPE999"]) == 2
        out = capsys.readouterr().out
        assert "error:" in out and "NOPE999" in out


class TestTrace:
    """``--trace DIR`` on plan, compare and serve: the one traced path."""

    WORKLOAD = ["TW", "--scale", "0.02", "--snapshots", "3"]

    def test_trace_plan_prints_phase_breakdown(self, tmp_path, capsys):
        assert main(
            ["plan", *self.WORKLOAD, "--trace", str(tmp_path / "t")]
        ) == 0
        out = capsys.readouterr().out
        assert "%parent" in out
        assert "tiling" in out and "parallelism" in out

    def test_trace_plan_exports_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "traces"
        assert main(["plan", *self.WORKLOAD, "--trace", str(out_dir)]) == 0
        out = capsys.readouterr().out
        from repro.obs import validate_trace_file

        assert validate_trace_file(out_dir / "trace.json") == []
        for name in ("spans.jsonl", "phases.json", "flame.folded"):
            assert (out_dir / name).exists()
            assert f"{out_dir / name}" in out

    def test_trace_compare_covers_simulator_phases(self, tmp_path, capsys):
        assert main(
            ["compare", *self.WORKLOAD, "--trace", str(tmp_path / "t")]
        ) == 0
        out = capsys.readouterr().out
        assert "DiTile-DGNN" in out  # the command's own table
        for phase in ("simulate", "snapshot", "noc", "dram"):
            assert phase in out

    def test_trace_serve_synthetic(self, tmp_path, capsys):
        assert main(
            ["serve", "--events", "200", "--vertices", "48",
             "--workers", "0", "--trace", str(tmp_path / "t")]
        ) == 0
        out = capsys.readouterr().out
        assert "windows served" in out
        assert "serve" in out and "resolve" in out
        # SLOs are evaluated only when --slo-json asks for the artifact.
        assert "SLO" not in out

    def test_trace_flag_on_plan(self, tmp_path, capsys):
        out_dir = tmp_path / "t"
        assert main(
            ["plan", *self.WORKLOAD, "--trace", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "alpha=" in out  # the command's own output still prints
        assert "%parent" in out
        assert (out_dir / "trace.json").exists()

    def test_trace_flag_on_serve(self, tmp_path, capsys):
        out_dir = tmp_path / "t"
        assert main(
            ["serve", "--events", "200", "--vertices", "48", "--workers", "0",
             "--trace", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "windows served" in out
        assert (out_dir / "trace.json").exists()

    def test_trace_phases_json_rows_are_name_sorted(self, tmp_path, capsys):
        out_dir = tmp_path / "t"
        assert main(["plan", *self.WORKLOAD, "--trace", str(out_dir)]) == 0
        capsys.readouterr()
        payload = json.loads((out_dir / "phases.json").read_text())
        assert set(payload) == {"phases"}

        def names_sorted(node):
            names = [c["name"] for c in node["children"]]
            return names == sorted(names) and all(
                names_sorted(c) for c in node["children"]
            )

        assert payload["phases"]["children"]
        assert names_sorted(payload["phases"])

    def test_trace_serve_exports_trace_and_slo(self, tmp_path, capsys):
        out_dir = tmp_path / "t"
        assert main(
            ["serve", "--events", "600", "--vertices", "48",
             "--pipeline-depth", "2",
             "--trace", str(out_dir), "--slo-json", str(out_dir / "slo.json")]
        ) == 0
        out = capsys.readouterr().out
        assert "SLO OK" in out
        from repro.obs import validate_trace_file

        assert validate_trace_file(out_dir / "trace.json") == []
        for name in ("spans.jsonl", "phases.json", "flame.folded"):
            assert (out_dir / name).exists()
        payload = json.loads((out_dir / "trace.json").read_text())
        pids = {
            e["pid"] for e in payload["traceEvents"] if e.get("ph") == "X"
        }
        assert pids == {0}
        assert json.loads((out_dir / "slo.json").read_text())["healthy"]


class TestSLOCommand:
    ARGS = ["--events", "600", "--vertices", "48", "--hidden-dim", "16"]

    def test_healthy_run_exits_zero(self, capsys):
        assert main(["slo", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "SLO OK" in out
        assert "p95_window_latency" in out

    def test_durable_run_reports_restart_budget(self, tmp_path, capsys):
        wal = tmp_path / "wal"
        assert main(["slo", *self.ARGS, "--wal", str(wal)]) == 0
        out = capsys.readouterr().out
        rows = [row for row in out.splitlines() if "restart_budget" in row]
        assert len(rows) == 1 and "[ok ]" in rows[0]

    def test_violated_target_exits_one(self, capsys):
        assert main(["slo", *self.ARGS, "--p95-latency", "1e-9"]) == 1
        out = capsys.readouterr().out
        assert "SLO VIOLATED" in out
        assert "window(s) over the latency target" in out

    def test_json_format_and_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "slo.json"
        assert main(
            ["slo", *self.ARGS, "--format", "json",
             "--slo-json", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):out.rindex("}") + 1])
        assert payload["healthy"] is True
        assert json.loads(out_path.read_text()) == payload

    def test_serve_slo_json_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "slo.json"
        assert main(
            ["serve", "--events", "300", "--vertices", "32",
             "--hidden-dim", "16", "--slo-json", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "SLO OK" in out
        assert json.loads(out_path.read_text())["healthy"] is True
