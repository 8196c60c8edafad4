"""Benchmark case registry: named, parameterized, suite-tagged cases.

A case is a zero-argument callable returning a :class:`CaseOutput` —
deterministic counters plus optional extra per-run timing metrics.  The
runner (:mod:`repro.bench.runner`) handles warmup, repetition, timing,
and the cross-repeat determinism check, so case bodies contain only the
workload itself.

Cases are tagged with the suites they belong to (``smoke`` is the fast
CI subset, ``full`` the nightly superset) and registered under stable
``area/name[variant]`` names; the registry returns them sorted by name
so records and baselines keep a stable order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "SUITES",
    "CaseOutput",
    "BenchCase",
    "BenchRegistry",
    "UnknownCaseError",
    "default_registry",
]

#: the suite catalog; ``smoke`` must stay fast enough to gate every PR
SUITES = ("smoke", "full")


class UnknownCaseError(LookupError):
    """A requested case or suite does not exist in the registry."""


@dataclass
class CaseOutput:
    """What one execution of a case body produced.

    ``counters`` are deterministic metrics (exact-gated against
    baselines); ``timings`` are optional wall-clock durations in seconds
    the case measured itself (e.g. a service's ``elapsed_s``), medianed
    across repeats alongside the runner's own ``run_s``.  Lower is better
    for every timing; ``repro bench compare`` reads them that way.
    """

    counters: Dict[str, float]
    timings: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark case."""

    name: str
    fn: Callable[[], CaseOutput]
    suites: Tuple[str, ...]
    params: Mapping[str, object]
    description: str = ""

    def __post_init__(self) -> None:
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ValueError(
                f"case {self.name!r} names unknown suites {unknown}; "
                f"known: {SUITES}"
            )


class BenchRegistry:
    """Holds the case catalog and resolves suite/name selections."""

    def __init__(self) -> None:
        self._cases: Dict[str, BenchCase] = {}

    def register(
        self,
        name: str,
        fn: Callable[[], CaseOutput],
        *,
        suites: Iterable[str] = ("full",),
        params: Optional[Mapping[str, object]] = None,
        description: str = "",
    ) -> BenchCase:
        """Add one case; names must be unique."""
        if name in self._cases:
            raise ValueError(f"benchmark case {name!r} is already registered")
        case = BenchCase(
            name=name,
            fn=fn,
            suites=tuple(suites),
            params=dict(params or {}),
            description=description,
        )
        self._cases[name] = case
        return case

    @property
    def names(self) -> List[str]:
        """All registered case names, sorted."""
        return sorted(self._cases)

    def get(self, name: str) -> BenchCase:
        """Look one case up, raising :class:`UnknownCaseError` if absent."""
        try:
            return self._cases[name]
        except KeyError:
            raise UnknownCaseError(
                f"unknown benchmark case {name!r}; known: {', '.join(self.names)}"
            ) from None

    def select(
        self,
        suite: Optional[str] = None,
        names: Optional[Iterable[str]] = None,
    ) -> List[BenchCase]:
        """Cases for a suite and/or an explicit name list, sorted by name.

        With ``names`` given, the suite filter is ignored — explicit
        selection wins.  With neither, every registered case is returned.
        """
        if names is not None:
            return sorted((self.get(n) for n in names), key=lambda c: c.name)
        if suite is not None:
            if suite not in SUITES:
                raise UnknownCaseError(
                    f"unknown suite {suite!r}; known: {', '.join(SUITES)}"
                )
            selected = [c for c in self._cases.values() if suite in c.suites]
        else:
            selected = list(self._cases.values())
        return sorted(selected, key=lambda c: c.name)


_DEFAULT: Optional[BenchRegistry] = None


def default_registry() -> BenchRegistry:
    """The process-wide registry with the repo's standard cases loaded."""
    global _DEFAULT
    if _DEFAULT is None:
        from . import cases

        registry = BenchRegistry()
        cases.register_all(registry)
        _DEFAULT = registry
    return _DEFAULT
