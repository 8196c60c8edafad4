"""Durable ingest: write-ahead log, checkpoints, crash-consistent recovery.

The serving stack (:class:`~repro.serving.service.StreamingService`) is
memory-only by default: a crash loses every ingested event and in-flight
window.  This package makes a run crash-consistent:

* :mod:`.wal` — a segmented append-only event log with per-record
  checksums (log-before-ack at the ingest boundary) plus the run lock
  that serializes ownership of a durability directory;
* :mod:`.checkpoint` — atomically written, N-deep-retained snapshots of
  the serving state at a window watermark (graph snapshot, plan-cache
  state, per-window results);
* :mod:`.recovery` — the recovery manager gluing both into the serving
  layer: on ``repro serve --wal DIR --resume`` it loads the newest valid
  checkpoint, replays the WAL suffix from the watermark with
  exactly-once window semantics, and rejoins the live stream;
* :mod:`.harness` — the ``repro chaos recover`` crash/recovery sweep:
  real SIGKILL of the serving process at deterministic commit points,
  resume, and byte-compare against the uninterrupted reference.

The invariant all of it defends: a run killed at **any** window boundary
and resumed produces per-window results byte-identical to the
uninterrupted run, for any pipeline depth.  See
``docs/resilience.md`` ("Durability & recovery").
"""

from .checkpoint import Checkpoint, CheckpointError, CheckpointStore
from .config import DurabilityConfig
from .harness import RecoverOutcome, RecoverReport, run_recover_sweep
from .recovery import DurableRun, SimulatedCrash, WindowCommitter
from .wal import (
    RunLock,
    WalCorruptionError,
    WalLockedError,
    WriteAheadLog,
)

__all__ = [
    "DurabilityConfig",
    "WriteAheadLog",
    "WalCorruptionError",
    "WalLockedError",
    "RunLock",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "DurableRun",
    "WindowCommitter",
    "SimulatedCrash",
    "RecoverOutcome",
    "RecoverReport",
    "run_recover_sweep",
]
