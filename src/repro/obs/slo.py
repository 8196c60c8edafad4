"""Declarative SLO monitoring over serving statistics.

An :class:`SLOTarget` names one service-level objective — a metric of
:class:`~repro.serving.stats.ServiceStats`, a direction, and a threshold.
:class:`SLOMonitor` evaluates a set of targets against a finished run's
stats into structured
:class:`HealthRecord`\\ s: one run-level record per target, plus one
record per served window for the latency target, so a report shows not
just *that* p95 latency breached but *which* windows breached it.

The monitor reads only the telemetry layer (wall-clock latencies and
the resume counter) — never the deterministic
simulation results — so attaching it can never perturb parity.  Exit
semantics mirror ``repro lint``: healthy -> 0, any violated target -> 1
(``repro slo`` and ``--slo-json`` on serve/chaos).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "SLOTarget",
    "HealthRecord",
    "SLOReport",
    "SLOMonitor",
    "default_targets",
]

#: direction of an objective: "max" = observed must stay at or under the
#: threshold, "min" = observed must stay at or over it
_OPS: Dict[str, Callable[[float, float], bool]] = {
    "max": lambda observed, threshold: observed <= threshold,
    "min": lambda observed, threshold: observed >= threshold,
}


@dataclass(frozen=True)
class SLOTarget:
    """One declarative service-level objective."""

    #: stats metric this objective constrains (a ``ServiceStats`` field
    #: or property, or ``restarts``)
    metric: str
    #: "max" (ceiling) or "min" (floor)
    op: str
    threshold: float
    #: short human label for reports; defaults to the metric name
    label: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"op must be 'max' or 'min', got {self.op!r}")

    @property
    def name(self) -> str:
        return self.label or self.metric

    def ok(self, observed: float) -> bool:
        """Whether ``observed`` meets this objective."""
        return _OPS[self.op](observed, self.threshold)


@dataclass(frozen=True)
class HealthRecord:
    """One target evaluated against one scope (the run or one window)."""

    metric: str
    op: str
    threshold: float
    observed: float
    ok: bool
    #: the window index this record scopes to; ``None`` = whole run
    window: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "metric": self.metric,
            "op": self.op,
            "threshold": self.threshold,
            "observed": self.observed,
            "ok": self.ok,
            "window": self.window,
        }


def default_targets(
    p95_latency_s: float = 0.5,
    restart_budget: float = 0.0,
) -> Tuple[SLOTarget, ...]:
    """The standard target set (the ``repro slo`` CLI's knobs).

    * ``p95_window_latency`` — 95th-percentile close-to-result window
      latency at or under ``p95_latency_s`` seconds;
    * ``restart_budget`` — durable resumes at or under
      ``restart_budget`` (0 for non-durable runs).
    """
    return (
        SLOTarget("p95_latency_s", "max", p95_latency_s, "p95_window_latency"),
        SLOTarget("restarts", "max", restart_budget, "restart_budget"),
    )


@dataclass
class SLOReport:
    """Every health record one evaluation produced."""

    targets: Tuple[SLOTarget, ...]
    records: List[HealthRecord] = field(default_factory=list)

    @property
    def run_records(self) -> List[HealthRecord]:
        """The run-level record of each target, in target order."""
        return [r for r in self.records if r.window is None]

    @property
    def window_records(self) -> List[HealthRecord]:
        """Per-window records (latency target), in window order."""
        return [r for r in self.records if r.window is not None]

    @property
    def violations(self) -> List[HealthRecord]:
        """Run-level records that missed their objective."""
        return [r for r in self.run_records if not r.ok]

    @property
    def healthy(self) -> bool:
        """Whether every run-level objective was met."""
        return not self.violations

    @property
    def exit_code(self) -> int:
        """Process exit code: 0 healthy, 1 violated (the lint contract)."""
        return 0 if self.healthy else 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "healthy": self.healthy,
            "targets": [
                {
                    "metric": t.metric,
                    "op": t.op,
                    "threshold": t.threshold,
                    "label": t.name,
                }
                for t in self.targets
            ],
            "run": [r.as_dict() for r in self.run_records],
            "windows": [r.as_dict() for r in self.window_records],
        }

    def render_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        """Fixed-width report, one line per run-level objective."""
        lines = [f"SLO {'OK' if self.healthy else 'VIOLATED'}"]
        for record in self.run_records:
            target = next(
                (t for t in self.targets if t.metric == record.metric), None
            )
            label = target.name if target is not None else record.metric
            bound = "<=" if record.op == "max" else ">="
            status = "ok " if record.ok else "FAIL"
            lines.append(
                f"  [{status}] {label:<20} {record.observed:>12.6g} "
                f"{bound} {record.threshold:g}"
            )
        breached = [r for r in self.window_records if not r.ok]
        if breached:
            worst = sorted(breached, key=lambda r: -r.observed)[:5]
            shown = ", ".join(
                f"w{r.window}={1e3 * r.observed:.2f}ms" for r in worst
            )
            lines.append(
                f"  {len(breached)} window(s) over the latency target "
                f"(worst: {shown})"
            )
        return "\n".join(lines)


class SLOMonitor:
    """Evaluates declarative targets against a run's service stats."""

    def __init__(self, targets: Optional[Tuple[SLOTarget, ...]] = None):
        self.targets = tuple(targets) if targets is not None else default_targets()

    # ------------------------------------------------------------------
    # Metric extraction
    # ------------------------------------------------------------------
    @staticmethod
    def observe(stats, metric: str) -> float:
        """Read ``metric`` off ``stats`` (property, field, or derived).

        ``restarts`` reads the durable resume count: a crash-and-recover
        cycle is a process restart from the operator's point of view.
        """
        if metric == "restarts":
            return float(stats.resumes)
        value = getattr(stats, metric, None)
        if value is None:
            raise KeyError(f"unknown SLO metric {metric!r}")
        return float(value)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, stats) -> SLOReport:
        """Evaluate every target against ``stats``.

        Emits one run-level :class:`HealthRecord` per target; latency
        targets additionally emit one record per served window (the
        window's own latency against the p95 threshold), so breaching
        windows are identifiable by index.
        """
        report = SLOReport(targets=self.targets)
        for target in self.targets:
            observed = self.observe(stats, target.metric)
            report.records.append(
                HealthRecord(
                    metric=target.metric,
                    op=target.op,
                    threshold=target.threshold,
                    observed=observed,
                    ok=target.ok(observed),
                )
            )
            if target.metric == "p95_latency_s":
                for record in stats.records:
                    report.records.append(
                        HealthRecord(
                            metric=target.metric,
                            op=target.op,
                            threshold=target.threshold,
                            observed=record.latency_s,
                            ok=target.ok(record.latency_s),
                            window=record.index,
                        )
                    )
        return report
