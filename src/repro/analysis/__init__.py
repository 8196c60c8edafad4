"""Static analysis for the repo's own invariants (``repro lint``).

An AST-based lint suite encoding the four invariant families the
codebase cannot express in the type system:

* determinism of the planning/simulation/serving paths (DET001-DET003) —
  the property the offline/online parity guarantee rests on;
* unit consistency of the suffix-annotated cost models (UNIT001-UNIT003);
* thread-confinement of mutable state in the serving layer (THR001),
  checked over a conservative project-wide call graph (:mod:`.callgraph`);
* crash-atomic writes of durable state (DUR001).

See ``docs/static-analysis.md`` for the rule catalog, the
``# repro: noqa[RULE] justification`` suppression syntax, and how to add
a rule.  CI runs ``repro lint src/repro`` and requires a clean tree.
"""

from .callgraph import CallGraph, FunctionDecl
from .determinism import DETERMINISM_RULES, fixpoint
from .findings import (
    FileRule,
    Finding,
    PathScope,
    ProjectRule,
    Rule,
    RuleRegistry,
    Severity,
    default_registry,
)
from .reporters import (
    JSON_SCHEMA_VERSION,
    SARIF_VERSION,
    render_json,
    render_sarif,
    render_text,
)
from .runner import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    LintReport,
    LintRunner,
    UsageError,
    run_lint,
)
from .source import SourceFile, Suppression, iter_python_files
from .threads import THREAD_RULES
from .units import UNIT_RULES, Unit, infer_unit, unit_of_name

__all__ = [
    "Severity",
    "Finding",
    "PathScope",
    "Rule",
    "FileRule",
    "ProjectRule",
    "RuleRegistry",
    "default_registry",
    "fixpoint",
    "CallGraph",
    "FunctionDecl",
    "DETERMINISM_RULES",
    "UNIT_RULES",
    "THREAD_RULES",
    "Unit",
    "infer_unit",
    "unit_of_name",
    "SourceFile",
    "Suppression",
    "iter_python_files",
    "render_text",
    "render_json",
    "render_sarif",
    "JSON_SCHEMA_VERSION",
    "SARIF_VERSION",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "LintReport",
    "LintRunner",
    "UsageError",
    "run_lint",
]
