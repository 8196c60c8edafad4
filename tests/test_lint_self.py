"""The repo's own tree must pass its own lint suite.

This is the check CI runs (``repro lint src/repro``); keeping it in the
tier-1 suite means a determinism/unit/thread regression fails fast in
local runs too, with the offending findings in the assertion message.
"""

import re
from pathlib import Path

from repro.analysis import (
    PathScope,
    SourceFile,
    default_registry,
    iter_python_files,
    run_lint,
)

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"

#: Findings the runner itself raises; they have no registry entry.
RUNNER_RULE_IDS = ["NOQA001", "NOQA002", "NOQA003", "PARSE001"]


def test_source_tree_exists():
    assert (SRC / "analysis").is_dir()


def test_src_repro_lints_clean():
    report = run_lint([SRC])
    rendered = "\n".join(f.format() for f in report.findings)
    assert report.findings == [], f"lint findings in src/repro:\n{rendered}"
    assert report.exit_code == 0
    assert report.files_checked > 50  # the whole package, not a subset


def test_every_suppression_in_tree_is_justified():
    """Belt and braces: NOQA001 findings would also fail the clean run."""
    for path in iter_python_files([SRC]):
        source = SourceFile.load(path)
        for suppression in source.suppressions.values():
            assert suppression.justification, (
                f"{path}:{suppression.line}: suppression without justification"
            )


def test_every_scope_pattern_names_live_code():
    """A scope entry for a deleted package checks nothing."""
    files = [path.as_posix() for path in iter_python_files([SRC])]
    for rule in default_registry().rules:
        for pattern in rule.scope.include:
            scope = PathScope(include=(pattern,))
            assert any(scope.contains(path) for path in files), (
                f"{rule.id}: scope pattern {pattern!r} matches no file "
                "under src/repro"
            )


def test_rule_catalog_lists_exactly_the_registered_rules():
    """docs/static-analysis.md has one table row per rule, no more."""
    text = (ROOT / "docs" / "static-analysis.md").read_text()
    documented = re.findall(r"^\| `([A-Z]+\d{3})` \|", text, flags=re.MULTILINE)
    expected = default_registry().ids() + RUNNER_RULE_IDS
    assert sorted(documented) == sorted(expected)
