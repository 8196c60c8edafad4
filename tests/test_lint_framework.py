"""Tests for the lint framework itself: findings, suppressions, scoping,
reporters, the runner's exit-code contract, and the unit algebra."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    Finding,
    JSON_SCHEMA_VERSION,
    LintRunner,
    PathScope,
    RuleRegistry,
    Severity,
    SourceFile,
    Unit,
    UsageError,
    default_registry,
    infer_unit,
    render_json,
    render_text,
    run_lint,
    unit_of_name,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


# ---------------------------------------------------------------------------
# Findings and severities
# ---------------------------------------------------------------------------
class TestFinding:
    def test_severity_ordering_and_str(self):
        assert Severity.ERROR > Severity.WARNING > Severity.ADVICE
        assert str(Severity.WARNING) == "warning"

    def test_format_line(self):
        f = Finding("DET001", "msg", "a/b.py", 3, 7)
        assert f.format() == "a/b.py:3:7: DET001 [error] msg"

    def test_sort_key_orders_by_position(self):
        late = Finding("DET001", "m", "a.py", 9)
        early = Finding("UNIT001", "m", "a.py", 2)
        assert sorted([late, early], key=Finding.sort_key) == [early, late]

    def test_as_dict_schema(self):
        d = Finding("THR001", "msg", "p.py", 1, 0, Severity.WARNING).as_dict()
        assert d == {
            "rule": "THR001",
            "severity": "warning",
            "path": "p.py",
            "line": 1,
            "col": 0,
            "message": "msg",
        }


class TestPathScope:
    def test_include_substring(self):
        scope = PathScope(include=("accel/",))
        assert scope.contains("src/repro/accel/energy.py")
        assert not scope.contains("src/repro/serving/service.py")

    def test_exclude_wins(self):
        scope = PathScope(include=("serving/",), exclude=("serving/stats.py",))
        assert scope.contains("src/repro/serving/service.py")
        assert not scope.contains("src/repro/serving/stats.py")

    def test_basename_pattern(self):
        scope = PathScope(include=("ditile.py",))
        assert scope.contains("src/repro/ditile.py")
        assert not scope.contains("src/repro/ditile_extras.py")

    def test_empty_include_means_everything(self):
        assert PathScope().contains("anything/at/all.py")

    def test_segment_matching_not_prefix_matching(self):
        # "dist/" must match only a directory named exactly `dist`, not a
        # file or directory whose name merely starts with it.
        scope = PathScope(include=("dist/",))
        assert scope.contains("src/repro/dist/worker.py")
        assert not scope.contains("src/repro/distutils_helpers.py")
        assert not scope.contains("src/repro/distributed/worker.py")
        assert not scope.contains("src/repro/tools/dist")  # file, not dir

    def test_multi_segment_pattern_requires_consecutive_segments(self):
        scope = PathScope(include=("serving/stats.py",))
        assert scope.contains("src/repro/serving/stats.py")
        assert not scope.contains("src/repro/serving/other/stats.py")


class TestRegistry:
    def test_default_registry_rule_ids(self):
        ids = default_registry().ids()
        assert ids == [
            "DET001", "DET002", "DET003",
            "UNIT001", "UNIT002", "UNIT003",
            "THR001",
            "MP001", "MP003",
            "DUR001",
        ]

    def test_duplicate_registration_rejected(self):
        registry = default_registry()
        with pytest.raises(ValueError, match="duplicate"):
            registry.register(registry.get("DET001"))

    def test_select_unknown_raises_keyerror(self):
        with pytest.raises(KeyError):
            default_registry().select(["NOPE999"])

    def test_empty_registry(self):
        registry = RuleRegistry()
        assert registry.ids() == []
        assert registry.file_rules() == []
        assert registry.project_rules() == []


# ---------------------------------------------------------------------------
# Suppression parsing
# ---------------------------------------------------------------------------
def _source(text: str) -> SourceFile:
    return SourceFile.from_text(text, display_path="core/x.py")


class TestSuppressions:
    def test_justified_suppression_parses(self):
        src = _source("x = 1  # repro: noqa[DET001] timing for the report\n")
        assert src.load_findings == []
        supp = src.suppressions[1]
        assert supp.rules == frozenset({"DET001"})
        assert supp.justification == "timing for the report"

    def test_multiple_rules_and_case_insensitivity(self):
        src = _source("x = 1  # REPRO: NOQA[det001, unit002] two at once\n")
        assert src.suppressions[1].rules == frozenset({"DET001", "UNIT002"})

    def test_missing_justification_is_noqa001(self):
        src = _source("x = 1  # repro: noqa[DET001]\n")
        assert [f.rule for f in src.load_findings] == ["NOQA001"]
        # The suppression still works; it is just reported.
        assert 1 in src.suppressions

    def test_bare_noqa_is_noqa002_and_does_not_suppress(self):
        src = _source("x = 1  # repro: noqa just because\n")
        assert [f.rule for f in src.load_findings] == ["NOQA002"]
        assert src.suppressions == {}

    def test_empty_bracket_is_noqa002(self):
        src = _source("x = 1  # repro: noqa[] huh\n")
        assert [f.rule for f in src.load_findings] == ["NOQA002"]

    def test_unused_suppression_is_noqa003_warning(self):
        src = _source("x = 1  # repro: noqa[UNIT001] nothing fires\n")
        unused = list(src.unused_suppressions({}))
        assert [f.rule for f in unused] == ["NOQA003"]
        assert unused[0].severity == Severity.WARNING

    def test_used_suppression_is_not_unused(self):
        src = _source("x = 1  # repro: noqa[UNIT001] fired below\n")
        assert list(src.unused_suppressions({1: {"UNIT001"}})) == []

    def test_suppresses_only_matching_rule_and_line(self):
        src = _source("x = 1  # repro: noqa[DET001] only this one\n")
        hit = Finding("DET001", "m", "core/x.py", 1)
        other_rule = Finding("DET002", "m", "core/x.py", 1)
        other_line = Finding("DET001", "m", "core/x.py", 2)
        assert src.suppresses(hit)
        assert not src.suppresses(other_rule)
        assert not src.suppresses(other_line)

    def test_syntax_error_is_parse001(self):
        src = _source("def broken(:\n")
        assert src.tree is None
        assert [f.rule for f in src.load_findings] == ["PARSE001"]


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------
_FINDINGS = [
    Finding("UNIT001", "mixed units", "a.py", 3, 1),
    Finding("UNIT001", "mixed units", "a.py", 9, 0),
    Finding("NOQA003", "unused", "b.py", 2, 0, Severity.WARNING),
]


class TestReporters:
    def test_text_report_lines_and_summary(self):
        out = render_text(_FINDINGS, files_checked=4)
        lines = out.splitlines()
        assert lines[0] == "a.py:3:1: UNIT001 [error] mixed units"
        assert lines[-1] == "3 findings in 4 files (NOQA003 x1, UNIT001 x2)"

    def test_text_report_clean(self):
        assert render_text([], files_checked=7) == "clean: 7 files, 0 findings"

    def test_json_report_schema(self):
        payload = json.loads(render_json(_FINDINGS, files_checked=4))
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["files_checked"] == 4
        assert len(payload["findings"]) == 3
        assert payload["findings"][0]["rule"] == "UNIT001"
        assert set(payload["findings"][0]) == {
            "rule", "severity", "path", "line", "col", "message",
        }
        assert payload["summary"] == {
            "total": 3,
            "by_rule": {"NOQA003": 1, "UNIT001": 2},
            "by_severity": {"error": 2, "warning": 1},
        }

    def test_json_report_clean(self):
        payload = json.loads(render_json([], files_checked=0))
        assert payload["summary"]["total"] == 0
        assert payload["findings"] == []


# ---------------------------------------------------------------------------
# Runner: exit codes, selection, suppression filtering
# ---------------------------------------------------------------------------
class TestRunner:
    def test_exit_clean_on_good_fixture(self):
        report = run_lint([FIXTURES / "accel" / "good_units.py"])
        assert report.exit_code == EXIT_CLEAN

    def test_exit_findings_on_bad_fixture(self):
        report = run_lint([FIXTURES / "accel" / "bad_mixed_units.py"])
        assert report.exit_code == EXIT_FINDINGS

    def test_missing_path_is_usage_error(self):
        with pytest.raises(UsageError):
            run_lint([FIXTURES / "no" / "such" / "file.py"])

    def test_no_paths_is_usage_error(self):
        with pytest.raises(UsageError):
            run_lint([])

    def test_unknown_select_is_usage_error(self):
        with pytest.raises(UsageError, match="NOPE999"):
            LintRunner(select=["NOPE999"])

    def test_select_restricts_rules(self):
        report = LintRunner(select=["det002"]).run([FIXTURES])
        assert {f.rule for f in report.findings} <= {
            "DET002", "NOQA001", "NOQA002", "NOQA003", "PARSE001",
        }
        assert "DET002" in {f.rule for f in report.findings}

    def test_directory_run_counts_files(self):
        report = run_lint([FIXTURES / "accel"])
        assert report.files_checked == 3

    def test_suppression_filters_finding(self):
        src = SourceFile.from_text(
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro: noqa[DET001] fixture timing\n",
            display_path="core/x.py",
        )
        report = LintRunner().run_sources([src])
        assert report.findings == []

    def test_unused_suppression_reporting_can_be_disabled(self):
        src = SourceFile.from_text(
            "x = 1  # repro: noqa[UNIT001] nothing fires here\n",
            display_path="core/x.py",
        )
        assert [
            f.rule for f in LintRunner().run_sources([src]).findings
        ] == ["NOQA003"]
        relaxed = LintRunner(report_unused_suppressions=False)
        assert relaxed.run_sources([src]).findings == []

    def test_rules_fired(self):
        report = run_lint([FIXTURES / "core"])
        assert report.rules_fired() == {"DET001", "DET002", "DET003"}


# ---------------------------------------------------------------------------
# Unit algebra
# ---------------------------------------------------------------------------
class TestUnitAlgebra:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("total_pj", Unit("pj")),
            ("energy_joules", Unit("joules")),
            ("compute_cycles", Unit("cycles")),
            ("buffer_bytes", Unit("bytes")),
            ("elapsed_s", Unit("seconds")),
            ("frequency_hz", Unit("cycles", "seconds")),
            ("bandwidth_bytes_per_cycle", Unit("bytes", "cycles")),
            ("JOULES_PER_PJ", Unit("joules", "pj")),
            ("_PJ", Unit("joules", "pj")),
            ("total_macs", Unit("macs")),
            ("plain_name", None),
            ("total_byte_hops", None),  # product quantity: outside algebra
        ],
    )
    def test_unit_of_name(self, name, expected):
        assert unit_of_name(name) == expected

    def test_lowercase_pj_suffix_is_picojoules_not_conversion(self):
        assert unit_of_name("sram_word_pj") == Unit("pj")

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("n_bytes + extra_bytes", Unit("bytes")),
            ("total_pj * JOULES_PER_PJ", Unit("joules")),
            ("total_cycles / clock_hz", Unit("seconds")),
            ("elapsed_seconds * clock_hz", Unit("cycles")),
            ("num_macs * pj_per_mac", Unit("pj")),
            ("n_bytes / bandwidth_bytes_per_cycle", Unit("cycles")),
            ("sum(x.n_bytes for x in xs)", Unit("bytes")),
            ("max(a_cycles, b_cycles)", Unit("cycles")),
            ("-overhead_cycles", Unit("cycles")),
            ("n_bytes * n_cycles", None),  # compound product: unknown
            ("plain * also_plain", None),
        ],
    )
    def test_infer_unit(self, expr, expected):
        import ast

        node = ast.parse(expr, mode="eval").body
        assert infer_unit(node) == expected
