"""Finding/severity model and the rule registry of the lint suite.

A *rule* encodes one repo invariant (see ``docs/static-analysis.md``); a
*finding* is one concrete violation, anchored to a file position.  Rules
come in two shapes:

* :class:`FileRule` — checked one file at a time on that file's AST
  (determinism and unit-consistency rules);
* :class:`ProjectRule` — checked once over every in-scope file together
  (the thread-safety rule, which needs the cross-file call graph from
  the serving thread targets to the mutation sites).

Every rule carries a :class:`PathScope` restricting it to the paths whose
invariant it encodes — determinism rules only apply to planning /
simulation / serving code, unit rules to the accelerator cost models,
thread rules to the serving layer.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .source import SourceFile

__all__ = [
    "Severity",
    "Finding",
    "PathScope",
    "Rule",
    "FileRule",
    "ProjectRule",
    "RuleRegistry",
]


class Severity(enum.IntEnum):
    """How bad a finding is; ordering is meaningful (``ERROR`` > ``WARNING``)."""

    ADVICE = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source position."""

    rule: str
    message: str
    path: str
    line: int
    col: int = 0
    severity: Severity = Severity.ERROR

    def sort_key(self) -> Tuple[str, int, int, str]:
        """Stable report order: path, then position, then rule id."""
        return (self.path, self.line, self.col, self.rule)

    def as_dict(self) -> Dict[str, object]:
        """JSON-reporter representation (schema in docs/static-analysis.md)."""
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def format(self) -> str:
        """``path:line:col: RULE [severity] message`` (the text reporter line)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )


@dataclass(frozen=True)
class PathScope:
    """Which files a rule applies to.

    ``include`` patterns are matched against whole path *segments* of the
    file's POSIX path: ``"accel/"`` matches any file below a directory
    named exactly ``accel`` (but not ``accelerators/`` or a file named
    ``accel_utils.py``), ``"ditile.py"`` matches that name anywhere, and
    ``"serving/stats.py"`` matches that consecutive segment pair.
    ``exclude`` wins over ``include``.  An empty ``include`` means
    "everything".
    """

    include: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()

    @staticmethod
    def _matches(path: str, pattern: str) -> bool:
        parts = [p for p in path.split("/") if p]
        pattern_parts = [p for p in pattern.split("/") if p]
        if not pattern_parts:
            return False
        # A trailing slash means the pattern names directories only, so
        # the path's final segment (the file name) cannot participate.
        candidates = parts[:-1] if pattern.endswith("/") else parts
        width = len(pattern_parts)
        return any(
            candidates[i : i + width] == pattern_parts
            for i in range(len(candidates) - width + 1)
        )

    def contains(self, posix_path: str) -> bool:
        """Whether a file at ``posix_path`` is in scope for the rule."""
        if any(self._matches(posix_path, pat) for pat in self.exclude):
            return False
        if not self.include:
            return True
        return any(self._matches(posix_path, pat) for pat in self.include)


#: Paths whose results must be reproducible: the planning, simulation and
#: serving pipeline the offline/online parity guarantee covers.  The
#: serving stats module is the one place wall-clock reads are allowed by
#: design, and the lint suite itself is tooling, not a modeled path.
DETERMINISTIC_PATHS = PathScope(
    include=(
        "core/",
        "accel/",
        "serving/",
        "dist/",
        "durability/",
        "resilience/",
        "graphs/",
        "baselines/",
        "models/",
        "bench/",
        "obs/",
        "ditile.py",
        "caching.py",
    ),
    exclude=("serving/stats.py", "analysis/"),
)

#: Paths that carry physical units in identifier suffixes (the Horowitz
#: energy model, cycle/byte accounting).
UNIT_PATHS = PathScope(include=("accel/", "core/"), exclude=("analysis/",))

#: Paths that run under more than one thread (ingest thread + dispatch
#: loop + worker pool).  ``durability/`` is in scope because the
#: WAL/checkpoint commit barrier runs on the pipeline's collector thread
#: while the ingest thread appends records.  ``dist/`` names no package in
#: ``src/``; it keeps the process-rule fixtures under
#: ``tests/fixtures/lint/dist/`` in scope.
THREADED_PATHS = PathScope(
    include=("serving/", "dist/", "durability/"),
    exclude=("analysis/",),
)


class Rule(ABC):
    """Base class: one identifiable, documented invariant check."""

    #: stable identifier used in reports and noqa suppressions
    id: str = ""
    #: one-line human name (the ``--list-rules`` output)
    name: str = ""
    #: why the invariant matters (surfaces in docs and ``--list-rules -v``)
    rationale: str = ""
    #: short illustrative snippet (the ``--explain RULE`` output)
    example: str = ""
    severity: Severity = Severity.ERROR
    scope: PathScope = PathScope()

    def applies_to(self, posix_path: str) -> bool:
        """Whether this rule is checked for the file at ``posix_path``."""
        return self.scope.contains(posix_path)

    def finding(
        self, source: "SourceFile", line: int, col: int, message: str
    ) -> Finding:
        """A finding of this rule at ``line:col`` of ``source``."""
        return Finding(
            rule=self.id,
            message=message,
            path=source.display_path,
            line=line,
            col=col,
            severity=self.severity,
        )


class FileRule(Rule):
    """A rule checked independently per file."""

    @abstractmethod
    def check(self, source: "SourceFile") -> Iterator[Finding]:
        """Yield findings for one parsed source file."""


class ProjectRule(Rule):
    """A rule checked once across all in-scope files."""

    @abstractmethod
    def check_project(self, sources: Sequence["SourceFile"]) -> Iterator[Finding]:
        """Yield findings for the whole in-scope file set."""


@dataclass
class RuleRegistry:
    """The rule set one lint run executes."""

    rules: List[Rule] = field(default_factory=list)

    def register(self, rule: Rule) -> Rule:
        if not rule.id:
            raise ValueError(f"rule {rule!r} has no id")
        if rule.id in self.ids():
            raise ValueError(f"duplicate rule id {rule.id}")
        self.rules.append(rule)
        return rule

    def ids(self) -> List[str]:
        return [rule.id for rule in self.rules]

    def get(self, rule_id: str) -> Rule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise KeyError(rule_id)

    def select(self, ids: Sequence[str]) -> "RuleRegistry":
        """A sub-registry of just ``ids`` (raises ``KeyError`` on unknown)."""
        return RuleRegistry([self.get(rule_id) for rule_id in ids])

    def file_rules(self) -> List[FileRule]:
        return [r for r in self.rules if isinstance(r, FileRule)]

    def project_rules(self) -> List[ProjectRule]:
        return [r for r in self.rules if isinstance(r, ProjectRule)]


def default_registry() -> RuleRegistry:
    """All built-in rules (imported lazily to avoid module cycles)."""
    from .determinism import DETERMINISM_RULES
    from .durable import DURABILITY_RULES
    from .processes import PROCESS_RULES
    from .threads import THREAD_RULES
    from .units import UNIT_RULES

    registry = RuleRegistry()
    for rule in (
        *DETERMINISM_RULES,
        *UNIT_RULES,
        *THREAD_RULES,
        *PROCESS_RULES,
        *DURABILITY_RULES,
    ):
        registry.register(rule)
    return registry
