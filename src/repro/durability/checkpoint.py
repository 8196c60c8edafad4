"""Atomic, N-deep-retained checkpoints of the serving state.

A checkpoint captures everything recovery needs to make the resumed run
byte-identical to the uninterrupted one from the *watermark* onwards:

* the graph snapshot as of the last committed window (the coordinator
  snapshot in the sharded service — per-shard subgraphs are re-derived
  from it with the same seeded partition, so they are not stored twice);
* the plan-manager state (cache entries in LRU order, hit/miss/replan
  counters, circuit-breaker scalars) so post-resume plan decisions
  match the uninterrupted run exactly.  Each cached plan is a
  :class:`~repro.serving.plan_manager.WindowPlan` — a placement and a
  tiling factor, a few hundred bytes — so the snapshot above is the
  only graph a checkpoint holds;
* the per-window results and latency records already produced, so the
  final report contains every window, not just the replayed suffix;
* the stats counters that summarize the committed prefix.

File format: ``MAGIC || len u32 || crc32 u32 || pickle(payload)``,
written to ``ckpt-{watermark:08d}.bin`` via write-to-temp, fsync,
``os.replace``, fsync-directory — a checkpoint either exists completely
or not at all.  ``load_latest`` walks newest-first and skips files that
fail the magic/length/checksum/unpickle gauntlet, so a crash *during*
a checkpoint write (or bit rot in the newest file) falls back to the
previous retained checkpoint instead of failing the resume.  ``MAGIC``
names the payload layout (``RDCKPT2``: plan state of window plans), so
checkpoints an older layout wrote fail the same gauntlet and a resume
replays the WAL instead of unpickling them.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Checkpoint", "CheckpointError", "CheckpointStore"]

#: bumped whenever the pickled payload changes shape
_MAGIC = b"RDCKPT2\n"
_HEADER = struct.Struct("<II")  # payload length, payload crc32


class CheckpointError(RuntimeError):
    """A checkpoint file failed validation (magic, length, crc, pickle)."""


@dataclass
class Checkpoint:
    """One committed-prefix snapshot of a durable serving run."""

    #: first window index the resumed run must execute (== windows committed)
    watermark: int
    #: graph snapshot after applying every window below the watermark
    snapshot: Any
    #: :meth:`~repro.serving.plan_manager.PlanManager.export_state` output
    plan_state: Dict[str, Any]
    #: per-window results for windows below the watermark, in window order
    results: List[Any] = field(default_factory=list)
    #: per-window latency records matching ``results``
    records: List[Any] = field(default_factory=list)
    #: committed-prefix stats counters (events, late_events, ...)
    counters: Dict[str, int] = field(default_factory=dict)
    #: stream positions logged to the WAL when this checkpoint was cut
    wal_records: int = 0
    #: run-shape fingerprint (shards, window, origin, ...) checked on resume
    meta: Dict[str, Any] = field(default_factory=dict)
    #: sharded-service extras (per-shard counters, edge accounts)
    shard_state: Optional[Dict[str, Any]] = None


def _checkpoint_path(directory: Path, watermark: int) -> Path:
    return directory / f"ckpt-{watermark:08d}.bin"


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CheckpointStore:
    """Directory of atomically written checkpoints, newest ``retain`` kept."""

    def __init__(self, directory, retain: int = 3, fsync: bool = True):
        self.directory = Path(directory)
        self.retain = retain
        self.fsync = fsync
        #: checkpoints written through this instance
        self.saved = 0
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save(self, checkpoint: Checkpoint) -> Path:
        """Atomically persist ``checkpoint`` and prune beyond ``retain``."""
        payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        final = _checkpoint_path(self.directory, checkpoint.watermark)
        tmp = final.with_suffix(".tmp")
        with tmp.open("wb") as handle:
            handle.write(blob)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, final)
        if self.fsync:
            _fsync_dir(self.directory)
        self.saved += 1
        self._prune()
        return final

    def _prune(self) -> None:
        files = self._list()
        for path, _ in files[: max(0, len(files) - self.retain)]:
            try:
                path.unlink()
            except FileNotFoundError:  # pragma: no cover - concurrent prune
                pass

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _list(self) -> List[Tuple[Path, int]]:
        """``(path, watermark)`` pairs, oldest watermark first."""
        out: List[Tuple[Path, int]] = []
        for path in self.directory.glob("ckpt-*.bin"):
            stem = path.name[len("ckpt-"):-len(".bin")]
            try:
                out.append((path, int(stem)))
            except ValueError:
                continue
        out.sort(key=lambda pair: pair[1])
        return out

    def load(self, path: Path) -> Checkpoint:
        """Strictly load one checkpoint file; :class:`CheckpointError` on rot."""
        data = Path(path).read_bytes()
        if not data.startswith(_MAGIC):
            raise CheckpointError(f"{path}: bad checkpoint magic")
        offset = len(_MAGIC)
        if len(data) < offset + _HEADER.size:
            raise CheckpointError(f"{path}: truncated checkpoint header")
        length, crc = _HEADER.unpack_from(data, offset)
        payload = data[offset + _HEADER.size:]
        if len(payload) != length:
            raise CheckpointError(
                f"{path}: payload is {len(payload)} bytes, header says {length}"
            )
        if zlib.crc32(payload) != crc:
            raise CheckpointError(f"{path}: checksum mismatch")
        try:
            checkpoint = pickle.loads(payload)
        except Exception as exc:
            raise CheckpointError(f"{path}: unpicklable payload: {exc}") from exc
        if not isinstance(checkpoint, Checkpoint):
            raise CheckpointError(
                f"{path}: payload is {type(checkpoint).__name__}, "
                "expected Checkpoint"
            )
        return checkpoint

    def load_latest(self) -> Optional[Checkpoint]:
        """Newest checkpoint that validates; ``None`` if none does."""
        for path, _ in reversed(self._list()):
            try:
                return self.load(path)
            except (CheckpointError, OSError):
                continue
        return None
