"""Segmented append-only write-ahead log for the ingest event stream.

Record layout (little-endian), one per logged event::

    +----------+----------+---------------------------------------+
    | len u32  | crc u32  | payload: pos u64, time f64,           |
    |          |          |          src i64, dst i64, kind u8    |
    +----------+----------+---------------------------------------+

``crc`` is the CRC-32 of the payload; ``len`` is the payload length.
``pos`` is the event's 0-based position in the (post-injection) stream,
which is what lets recovery rejoin the live stream exactly where the
log ends.  Malformed (quarantinable) events log like any other — the
ingest path re-applies its own validation on replay, so replayed runs
quarantine exactly what the original run quarantined.

Segment protocol:

* the active segment is written in place as ``wal-NNNNNN.seg.open``;
* when it crosses ``segment_bytes`` it is flushed, fsynced, and sealed
  via ``os.replace`` to ``wal-NNNNNN.seg`` (fsync-then-rename: a sealed
  segment is complete by construction);
* on open, sealed segments are replayed strictly — a checksum mismatch
  mid-log raises :class:`WalCorruptionError` — while the single open
  tail segment tolerates a torn or corrupt final record by truncating
  at the last valid record boundary (the crash left it half-written).

The log is append-owned by the ingest thread while ``sync()`` runs on
the dispatch thread at every window commit, so all file mutation is
serialized under one lock.

:class:`RunLock` serializes ownership of a durability directory: the
lock file records the owning pid, the shared-memory session id, and the
live worker pids, so a recovering process can detect a stale lock
(owner dead), reap orphaned shard workers, and sweep orphaned
shared-memory segments before taking over — see
:meth:`~repro.durability.recovery.DurableRun.start`.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from ..graphs.continuous import EdgeEvent

__all__ = [
    "WalCorruptionError",
    "WalLockedError",
    "WriteAheadLog",
    "RunLock",
    "LockInfo",
]

_HEADER = struct.Struct("<II")  # payload length, payload crc32
_PAYLOAD = struct.Struct("<Qdqqb")  # position, time, src, dst, kind
_KIND_ADD = 0
_KIND_REMOVE = 1

_SEALED_SUFFIX = ".seg"
_OPEN_SUFFIX = ".seg.open"


class WalCorruptionError(RuntimeError):
    """A sealed WAL segment failed its checksum (mid-log corruption)."""


class WalLockedError(RuntimeError):
    """The durability directory is owned by another live process."""


def _segment_path(directory: Path, seq: int, sealed: bool) -> Path:
    suffix = _SEALED_SUFFIX if sealed else _OPEN_SUFFIX
    return directory / f"wal-{seq:06d}{suffix}"


def _encode(position: int, event: EdgeEvent) -> bytes:
    kind = _KIND_ADD if event.kind == "add" else _KIND_REMOVE
    payload = _PAYLOAD.pack(position, event.time, event.src, event.dst, kind)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes) -> Tuple[int, EdgeEvent]:
    position, time, src, dst, kind = _PAYLOAD.unpack(payload)
    return position, EdgeEvent(
        time, src, dst, "add" if kind == _KIND_ADD else "remove"
    )


def _scan_segment(data: bytes) -> Tuple[List[Tuple[int, EdgeEvent]], int, bool]:
    """Parse ``data`` into records.

    Returns ``(records, valid_bytes, clean)`` where ``valid_bytes`` is
    the offset of the first byte that failed to parse (== ``len(data)``
    when ``clean``).
    """
    records: List[Tuple[int, EdgeEvent]] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            return records, offset, False
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if length != _PAYLOAD.size or end > total:
            return records, offset, False
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return records, offset, False
        records.append(_decode_payload(payload))
        offset = end
    return records, offset, True


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadLog:
    """Append-only event log over one directory of segments.

    Use :meth:`open` to recover existing segments and position the log
    for appending; a fresh directory starts at segment 0.
    """

    def __init__(
        self,
        directory: Path,
        segment_bytes: int = 256 * 1024,
        fsync: bool = True,
    ):
        self.directory = Path(directory)
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        #: records appended through this instance (not replayed ones)
        self.records_appended = 0
        #: sync() calls that reached the disk
        self.syncs = 0
        self._lock = threading.Lock()
        self._active = None  # open binary file handle of the tail segment
        self._active_seq = 0
        self._active_bytes = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Opening / replay
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory,
        segment_bytes: int = 256 * 1024,
        fsync: bool = True,
    ) -> Tuple["WriteAheadLog", List[Tuple[int, EdgeEvent]]]:
        """Open ``directory``, replay every record, ready the tail for append.

        Sealed segments must parse completely (:class:`WalCorruptionError`
        otherwise); the open tail segment is truncated at its last valid
        record boundary, tolerating the torn write a crash left behind.
        Returns the log plus the replayed ``(position, event)`` records
        in append order.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        wal = cls(directory, segment_bytes=segment_bytes, fsync=fsync)
        records: List[Tuple[int, EdgeEvent]] = []

        sealed = sorted(directory.glob(f"wal-*{_SEALED_SUFFIX}"))
        open_tails = sorted(directory.glob(f"wal-*{_OPEN_SUFFIX}"))
        if len(open_tails) > 1:
            raise WalCorruptionError(
                f"{directory}: {len(open_tails)} open tail segments; "
                "at most one may exist"
            )
        for path in sealed:
            data = path.read_bytes()
            seg_records, valid, clean = _scan_segment(data)
            if not clean:
                raise WalCorruptionError(
                    f"{path}: checksum mismatch at byte {valid} of a "
                    "sealed segment (mid-log corruption)"
                )
            records.extend(seg_records)

        next_seq = len(sealed)
        if open_tails:
            tail = open_tails[0]
            tail_seq = int(tail.name[len("wal-"):len("wal-") + 6])
            if tail_seq != next_seq:
                raise WalCorruptionError(
                    f"{tail}: open segment sequence {tail_seq} does not "
                    f"follow the {next_seq} sealed segment(s)"
                )
            data = tail.read_bytes()
            tail_records, valid, clean = _scan_segment(data)
            if not clean:
                # Torn/corrupt tail: keep the valid prefix, drop the rest.
                with tail.open("r+b") as handle:
                    handle.truncate(valid)
            records.extend(tail_records)
            wal._active_seq = tail_seq
            wal._active = tail.open("ab")
            wal._active_bytes = valid if not clean else len(data)
        else:
            wal._active_seq = next_seq
            wal._active = _segment_path(directory, next_seq, sealed=False).open(
                "ab"
            )
            wal._active_bytes = 0
        return wal, records

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, position: int, event: EdgeEvent) -> None:
        """Log one stream event (buffered; durable after :meth:`sync`)."""
        blob = _encode(position, event)
        with self._lock:
            if self._closed:
                raise ValueError("append on a closed WriteAheadLog")
            assert self._active is not None
            self._active.write(blob)
            self._active_bytes += len(blob)
            self.records_appended += 1
            if self._active_bytes >= self.segment_bytes:
                self._rotate()

    def sync(self) -> None:
        """Flush and fsync the active segment (the commit barrier)."""
        with self._lock:
            if self._closed or self._active is None:
                return
            self._active.flush()
            if self.fsync:
                os.fsync(self._active.fileno())
            self.syncs += 1

    def _rotate(self) -> None:
        """Seal the active segment (fsync-then-rename) and open the next."""
        assert self._active is not None
        self._active.flush()
        if self.fsync:
            os.fsync(self._active.fileno())
        self._active.close()
        os.replace(
            _segment_path(self.directory, self._active_seq, sealed=False),
            _segment_path(self.directory, self._active_seq, sealed=True),
        )
        if self.fsync:
            _fsync_dir(self.directory)
        self._active_seq += 1
        self._active = _segment_path(  # repro: noqa[THR001] _rotate runs only under append's `with self._lock:` (Lock is not reentrant, so the guard cannot be repeated lexically here)
            self.directory, self._active_seq, sealed=False
        ).open("ab")
        self._active_bytes = 0  # repro: noqa[THR001] same: caller (append) holds self._lock

    def close(self) -> None:
        """Flush, fsync, and close the active segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._active is not None:
                self._active.flush()
                if self.fsync:
                    os.fsync(self._active.fileno())
                self._active.close()
                self._active = None


# ---------------------------------------------------------------------------
# Run lock
# ---------------------------------------------------------------------------
@dataclass
class LockInfo:
    """What a run lock records about its owner.

    Enough for a successor to clean up after a SIGKILLed owner: the
    shared-memory session id plus the grid bounds (shards, generations,
    windows) enumerate every segment name the dead run could have
    created, and ``workers`` are the shard-worker pids to reap.
    """

    pid: int
    session: str = ""
    shards: int = 0
    num_windows: int = 0
    max_generations: int = 0
    workers: Tuple[int, ...] = field(default_factory=tuple)

    def to_json(self) -> str:
        return json.dumps(
            {
                "pid": self.pid,
                "session": self.session,
                "shards": self.shards,
                "num_windows": self.num_windows,
                "max_generations": self.max_generations,
                "workers": list(self.workers),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "LockInfo":
        raw = json.loads(text)
        return cls(
            pid=int(raw["pid"]),
            session=str(raw.get("session", "")),
            shards=int(raw.get("shards", 0)),
            num_windows=int(raw.get("num_windows", 0)),
            max_generations=int(raw.get("max_generations", 0)),
            workers=tuple(int(p) for p in raw.get("workers", [])),
        )


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    return True


class RunLock:
    """Exclusive ownership of a durability directory, keyed by run id.

    Acquisition is ``O_CREAT | O_EXCL`` on the lock file.  An existing
    lock whose recorded pid is dead is *stale*: :meth:`acquire` returns
    its :class:`LockInfo` to the caller (who sweeps the dead run's
    leavings — see :func:`~repro.durability.recovery.reclaim_stale_lock`)
    and takes the lock over.  A lock owned by a live process raises
    :class:`WalLockedError`.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._held = False

    def acquire(self, info: LockInfo) -> Optional[LockInfo]:
        """Take the lock; returns the stale owner's info if one was reclaimed."""
        stale: Optional[LockInfo] = None
        while True:
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                owner = self._read_owner()
                if owner is not None and _pid_alive(owner.pid):
                    raise WalLockedError(
                        f"{self.path}: durability directory is locked by "
                        f"live pid {owner.pid} (session "
                        f"{owner.session or '<none>'})"
                    )
                stale = owner if owner is not None else stale
                try:
                    os.unlink(self.path)
                except FileNotFoundError:  # pragma: no cover - lost race
                    pass
                continue
            try:
                os.write(fd, info.to_json().encode("utf-8"))
            finally:
                os.close(fd)
            self._held = True
            self._info = info
            return stale

    def _read_owner(self) -> Optional[LockInfo]:
        try:
            return LockInfo.from_json(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError):
            # Unreadable or torn lock content counts as stale.
            return None

    def update(self, info: LockInfo) -> None:
        """Atomically rewrite the lock body (e.g. fresh worker pids)."""
        if not self._held:
            raise ValueError("update on a lock that is not held")
        tmp = self.path.with_suffix(".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(info.to_json())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._info = info

    @property
    def info(self) -> LockInfo:
        """The lock body as last written by this process."""
        return self._info

    def release(self) -> None:
        """Drop the lock (idempotent; no-op if never acquired)."""
        if not self._held:
            return
        self._held = False  # repro: noqa[THR001] RunLock is owner-exclusive and driven only from the coordinator main thread; `release` merely collides with unrelated thread-root method names
        try:
            os.unlink(self.path)
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
