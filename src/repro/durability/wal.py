"""Segmented append-only write-ahead log for the ingest event stream.

Record layout (little-endian, packed), one per logged event::

    +----------+----------+---------------------------------------+
    | len u32  | crc u32  | payload: pos u64, time f64,           |
    |          |          |          src i64, dst i64, kind i8    |
    +----------+----------+---------------------------------------+

``crc`` is the CRC-32 of the payload; ``len`` is the payload length
(33, so a record is 41 bytes).  ``kind`` is 0 for an add and 1 for a
remove.  ``pos`` is the event's 0-based position in the
(post-injection) stream, which is what lets recovery rejoin the live
stream exactly where the log ends.  Malformed (quarantinable) events
log like any other — the ingest path re-applies its own validation on
replay, so replayed runs quarantine exactly what the original run
quarantined.  :data:`_RECORD` is the layout as a NumPy dtype; batches
are encoded and decoded through it.

Segment protocol:

* the active segment is written in place as ``wal-NNNNNN.seg.open``;
* when it crosses ``segment_bytes`` it is flushed, fsynced, and sealed
  via ``os.replace`` to ``wal-NNNNNN.seg`` (fsync-then-rename: a sealed
  segment is complete by construction);
* on open, sealed segments are replayed strictly — a checksum mismatch
  mid-log raises :class:`WalCorruptionError` — while the single open
  tail segment tolerates a torn or corrupt final record by truncating
  at the last valid record boundary (the crash left it half-written).

Threads: :meth:`WriteAheadLog.append` runs once per event on the ingest
thread and only buffers.  The same thread calls
:meth:`WriteAheadLog.flush` before it hands a window to dispatch, which
encodes the buffered batch and writes it; ``sync()`` runs on the
dispatch thread at every window commit.  File writes and the swap of
the buffer are serialized under one lock.

:class:`RunLock` serializes ownership of a durability directory: the
lock file records the owning pid, so a recovering process can detect a
stale lock (owner dead) and take it over — see
:meth:`~repro.durability.recovery.DurableRun.start`.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ..graphs.continuous import EdgeEvent, EventColumns

__all__ = [
    "WalCorruptionError",
    "WalLockedError",
    "WriteAheadLog",
    "RunLock",
    "LockInfo",
]

#: one WAL record: the header (payload length, payload CRC-32), then the
#: payload (stream position, time, src, dst, kind)
_RECORD = np.dtype(
    [
        ("length", "<u4"),
        ("crc", "<u4"),
        ("position", "<u8"),
        ("time", "<f8"),
        ("src", "<i8"),
        ("dst", "<i8"),
        ("kind", "i1"),
    ]
)
_HEADER_BYTES = 8
_PAYLOAD_BYTES = _RECORD.itemsize - _HEADER_BYTES

_SEALED_SUFFIX = ".seg"
_OPEN_SUFFIX = ".seg.open"


class WalCorruptionError(RuntimeError):
    """A sealed WAL segment failed its checksum (mid-log corruption)."""


class WalLockedError(RuntimeError):
    """The durability directory is owned by another live process."""


def _segment_path(directory: Path, seq: int, sealed: bool) -> Path:
    suffix = _SEALED_SUFFIX if sealed else _OPEN_SUFFIX
    return directory / f"wal-{seq:06d}{suffix}"


def _payload_crcs(data: bytes, count: int) -> np.ndarray:
    """CRC-32 of the payload of each of the first ``count`` records."""
    size = _RECORD.itemsize
    crcs = [
        zlib.crc32(data[offset:offset + _PAYLOAD_BYTES])
        for offset in range(_HEADER_BYTES, count * size, size)
    ]
    return np.array(crcs, dtype=np.uint32)


def _encode_records(positions: List[int], events: List[EdgeEvent]) -> bytes:
    """The records of ``events`` logged at stream ``positions``."""
    columns = EventColumns.from_events(events)
    records = np.empty(len(events), dtype=_RECORD)
    records["length"] = _PAYLOAD_BYTES
    records["position"] = positions
    records["time"] = columns.times
    records["src"] = columns.src
    records["dst"] = columns.dst
    records["kind"] = columns.remove
    records["crc"] = _payload_crcs(records.tobytes(), len(records))
    return records.tobytes()


def _scan_segment(data: bytes) -> Tuple[List[Tuple[int, EdgeEvent]], int, bool]:
    """Parse ``data`` into records.

    Returns ``(records, valid_bytes, clean)`` where ``valid_bytes`` is
    the offset of the first byte that failed to parse (== ``len(data)``
    when ``clean``).  A record fails on a wrong length field or CRC; a
    trailing partial record fails too.
    """
    size = _RECORD.itemsize
    count = len(data) // size
    records = np.frombuffer(data, dtype=_RECORD, count=count)
    bad = np.flatnonzero(
        (records["length"] != _PAYLOAD_BYTES)
        | (records["crc"] != _payload_crcs(data, count))
    )
    good = records[: bad[0] if len(bad) else count]
    events = [
        EdgeEvent(time, src, dst, "remove" if kind else "add")
        for time, src, dst, kind in zip(
            good["time"].tolist(),
            good["src"].tolist(),
            good["dst"].tolist(),
            good["kind"].tolist(),
        )
    ]
    valid = len(good) * size
    return list(zip(good["position"].tolist(), events)), valid, valid == len(data)


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
        #: records written through this instance (not replayed ones)
        self.records_appended = 0
        #: sync() calls that reached the disk
        self.syncs = 0
        self._lock = threading.Lock()
        #: appended, not yet written ``(positions, events)``: the two lists
        #: belong to the appending thread, and flush swaps in new ones
        self._pending: Tuple[List[int], List[EdgeEvent]] = ([], [])
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
        """Buffer one stream event; :meth:`flush` writes it.

        Called once per event, so it only appends to two lists: no lock,
        no encoding, no write.  The event is durable after the flush and
        the next :meth:`sync`.
        """
        if self._closed:
            raise ValueError("append on a closed WriteAheadLog")
        positions, events = self._pending
        positions.append(position)
        events.append(event)

    def flush(self) -> None:
        """Encode the buffered events and write them to the log.

        Runs on the appending thread.  The records are split across
        segments exactly where one-record-at-a-time writes would split
        them: a segment takes records until it reaches ``segment_bytes``.
        The data reaches the operating system here (a killed process does
        not lose it) and the disk at the next :meth:`sync`.
        """
        size = _RECORD.itemsize
        with self._lock:
            positions, events = self._pending
            if not positions:
                return
            self._pending = ([], [])
            blob = _encode_records(positions, events)
            assert self._active is not None
            offset = 0
            while offset < len(blob):
                room = -(-(self.segment_bytes - self._active_bytes) // size)
                piece = blob[offset:offset + max(1, room) * size]
                self._active.write(piece)
                self._active_bytes += len(piece)
                offset += len(piece)
                if self._active_bytes >= self.segment_bytes:
                    self._rotate()
            self._active.flush()
            self.records_appended += len(positions)

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
        self._active = _segment_path(  # repro: noqa[THR001] _rotate runs only under flush's `with self._lock:` (Lock is not reentrant, so the guard cannot be repeated lexically here)
            self.directory, self._active_seq, sealed=False
        ).open("ab")
        self._active_bytes = 0  # repro: noqa[THR001] same: caller (flush) holds self._lock

    def close(self) -> None:
        """Write buffered events, then flush, fsync, and close the active
        segment (idempotent)."""
        self.flush()
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
    """What a run lock records about its owner: the owning pid."""

    pid: int

    def to_json(self) -> str:
        return json.dumps({"pid": self.pid}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LockInfo":
        # Older lock bodies carry more keys (a session id, worker pids);
        # only the pid decides whether the owner is alive.
        return cls(pid=int(json.loads(text)["pid"]))


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
    lock whose recorded pid is dead (or whose body is torn) is *stale*:
    :meth:`acquire` takes it over and returns the dead owner's
    :class:`LockInfo`.  A lock owned by a live process raises
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
                        f"live pid {owner.pid}"
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
            return stale

    def _read_owner(self) -> Optional[LockInfo]:
        try:
            return LockInfo.from_json(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError):
            # Unreadable or torn lock content counts as stale.
            return None

    def release(self) -> None:
        """Drop the lock (idempotent; no-op if never acquired)."""
        if not self._held:
            return
        self._held = False  # repro: noqa[THR001] RunLock is owner-exclusive and driven only from the thread that runs serve(); `release` merely collides with unrelated thread-root method names
        try:
            os.unlink(self.path)
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
