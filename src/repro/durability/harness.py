"""The ``repro chaos recover`` harness: kill, resume, byte-compare.

:func:`run_recover_sweep` drives the durability guarantee end to end at
real process granularity: for each selected window boundary it forks a
victim process that serves the stream with ``kill_after_commit`` armed —
the victim SIGKILLs *itself* the instant that window's commit is durable
(checkpoint written, WAL fsynced), exactly the no-cleanup crash an OOM
kill or power loss produces (the victim also strands its run lock).  The
harness then resumes from the crashed directory in-process and
byte-compares the resumed run's deterministic per-window results JSON
against an uninterrupted reference run.

Everything in the resulting :class:`RecoverReport` is a pure function of
(stream, spec, config, kill points): kill exit codes, byte-identity
verdicts, recovered window counts, WAL record counts.  Repeated sweeps
byte-compare — the CI chaos-recovery job relies on it.  (How many
windows the resumed run re-executes from the WAL is left out: it counts
how far ingest had logged ahead of the kill, which varies run to run.)
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .config import DurabilityConfig

__all__ = ["RecoverOutcome", "RecoverReport", "run_recover_sweep"]


@dataclass(frozen=True)
class RecoverOutcome:
    """One kill point's verdict."""

    kill_point: int
    #: the victim's exit code (``-SIGKILL`` on a healthy kill)
    exitcode: Optional[int]
    #: whether the resumed run's results JSON byte-matched the reference
    identical: bool
    #: windows restored from the checkpoint (never re-executed)
    recovered_windows: int
    #: WAL records visible to the resumed run (replayed + re-appended)
    wal_records: int

    @property
    def ok(self) -> bool:
        """Killed by SIGKILL and resumed byte-identically."""
        return self.exitcode == -signal.SIGKILL and self.identical


@dataclass
class RecoverReport:
    """The deterministic outcome of one recovery sweep."""

    pipeline_depth: int = 1
    windows: int = 0
    outcomes: List[RecoverOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every kill point recovered byte-identically."""
        return bool(self.outcomes) and all(o.ok for o in self.outcomes)

    @property
    def exit_code(self) -> int:
        """Process exit code: 0 on full recovery, 1 otherwise."""
        return 0 if self.ok else 1

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "pipeline_depth": self.pipeline_depth,
            "windows": self.windows,
            "outcomes": [
                {
                    "kill_point": o.kill_point,
                    "exitcode": o.exitcode,
                    "identical": o.identical,
                    "recovered_windows": o.recovered_windows,
                    "wal_records": o.wal_records,
                    "ok": o.ok,
                }
                for o in self.outcomes
            ],
        }

    def to_json(self) -> str:
        """Canonical serialization for byte-identity comparisons."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def summary(self) -> str:
        """Human-readable sweep verdict."""
        bad = [o for o in self.outcomes if not o.ok]
        head = (
            f"recovery sweep     {len(self.outcomes)} kill points over "
            f"{self.windows} windows "
            f"(depth={self.pipeline_depth}): "
        )
        if not self.outcomes:
            return head + "nothing to kill"
        if not bad:
            return head + "all resumed byte-identical"
        sites = ", ".join(
            f"w{o.kill_point}"
            f"[{'kill' if o.exitcode != -signal.SIGKILL else 'diff'}]"
            for o in bad
        )
        return head + f"{len(bad)} FAILED ({sites})"


def _serve(
    stream: Any,
    spec: Any,
    config: Any,
    durability: Optional[DurabilityConfig],
) -> Any:
    """One serve run, returning its report."""
    from dataclasses import replace

    from ..serving.service import StreamingService

    cfg = replace(config, durability=durability)
    return StreamingService(config=cfg).serve(stream, spec)


def _victim(stream, spec, config, directory, kill_point) -> None:
    """Process target: serve with the self-SIGKILL hook armed.

    Reaching the end without being killed means the hook never fired
    (a bad kill point) — exit 0 so the parent flags it via exitcode.
    """
    durability = DurabilityConfig(
        directory=directory, kill_after_commit=kill_point
    )
    _serve(stream, spec, config, durability)


def run_recover_sweep(
    stream: Any,
    spec: Any,
    config: Optional[Any] = None,
    kill_points: Optional[Sequence[int]] = None,
    root: Optional[str] = None,
    keep_artifacts: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[RecoverReport, str]:
    """Kill-and-resume every selected window boundary; byte-compare each.

    Returns ``(report, reference_json)`` — the deterministic sweep
    report and the uninterrupted reference results it compared against.
    ``kill_points`` defaults to every window boundary.  Artifacts (WAL,
    checkpoints, the resumed dump) of *failed* kill points are always
    kept under ``root`` for post-mortem; passing ``keep_artifacts``
    keeps the healthy ones too.
    """
    from ..serving.service import ServiceConfig

    if config is None:
        config = ServiceConfig()

    reference = _serve(stream, spec, config, durability=None)
    reference_json = reference.results_json()
    n = len(reference.results)
    points = list(kill_points) if kill_points is not None else list(range(n))
    bad_points = [k for k in points if not 0 <= k < n]
    if bad_points:
        raise ValueError(
            f"kill points {bad_points} out of range [0, {n}) for this stream"
        )

    report = RecoverReport(pipeline_depth=config.pipeline_depth, windows=n)
    base = root or tempfile.mkdtemp(prefix="repro-recover-")
    os.makedirs(base, exist_ok=True)
    # fork: the victim inherits the stream/spec/config objects directly.
    ctx = multiprocessing.get_context("fork")
    for k in points:
        workdir = os.path.join(base, f"kill-{k:04d}")
        victim = ctx.Process(
            target=_victim, args=(stream, spec, config, workdir, k)
        )
        victim.start()
        victim.join(timeout=600)
        if victim.is_alive():  # pragma: no cover - hung victim
            victim.terminate()
            victim.join()
        resumed_json = ""
        recovered = replayed = wal_records = 0
        identical = False
        if victim.exitcode == -signal.SIGKILL:
            resumed = _serve(
                stream,
                spec,
                config,
                DurabilityConfig(directory=workdir, resume=True),
            )
            resumed_json = resumed.results_json()
            identical = resumed_json == reference_json
            recovered = resumed.stats.recovered_windows
            replayed = resumed.stats.replayed_windows
            wal_records = resumed.stats.wal_records
        outcome = RecoverOutcome(
            kill_point=k,
            exitcode=victim.exitcode,
            identical=identical,
            recovered_windows=recovered,
            wal_records=wal_records,
        )
        report.outcomes.append(outcome)
        if progress is not None:
            verdict = "ok" if outcome.ok else "FAILED"
            progress(
                f"kill@{k}: exit={victim.exitcode} recovered={recovered} "
                f"replayed={replayed} -> {verdict}"
            )
        if outcome.ok and not keep_artifacts:
            shutil.rmtree(workdir, ignore_errors=True)
        elif not outcome.ok and resumed_json:
            # Post-mortem breadcrumbs next to the WAL/checkpoints.
            with open(os.path.join(workdir, "resumed.json"), "w") as fh:  # repro: noqa[DUR001] post-mortem breadcrumb, not durable state: losing it to a crash of the *harness* costs nothing
                fh.write(resumed_json + "\n")
            with open(os.path.join(workdir, "reference.json"), "w") as fh:  # repro: noqa[DUR001] post-mortem breadcrumb, not durable state
                fh.write(reference_json + "\n")
    if report.ok and not keep_artifacts and root is None:
        shutil.rmtree(base, ignore_errors=True)
    return report, reference_json
