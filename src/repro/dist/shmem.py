"""Shared-memory shard snapshots: zero-copy numpy views across processes.

One segment holds a flat sequence of int64 arrays (the window's delta and
snapshot edge arrays).  The *spec* — name plus per-field element counts —
travels over the coordinator queue; the arrays never do.

Lifecycle protocol (the part that keeps Python's ``resource_tracker``
quiet — it otherwise double-frees segments that cross a process
boundary):

* the **worker** creates the segment, immediately *unregisters* it from
  its own tracker, fills it, and closes its mapping — the worker never
  unlinks;
* the **coordinator** attaches (re-registering it with the coordinator's
  tracker), consumes the views, closes, and **unlinks** — exactly-once
  cleanup owned by the one process guaranteed to outlive the window.

Crashed workers can leak created-but-unannounced segments; the
coordinator sweeps those by name (:func:`unlink_segment` tolerates
absence), which deterministic segment naming makes possible.
"""

from __future__ import annotations

import _posixshmem
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Iterator, List, Tuple

import numpy as np

__all__ = ["SegmentSpec", "write_segment", "attach_segment", "unlink_segment"]

_ITEMSIZE = 8  # every field is int64


@dataclass(frozen=True)
class SegmentSpec:
    """Name and layout of one shared-memory segment (int64 fields)."""

    name: str
    #: ``(field name, element count)`` in storage order
    fields: Tuple[Tuple[str, int], ...]

    @property
    def nbytes(self) -> int:
        """Total payload size in bytes."""
        return sum(count for _, count in self.fields) * _ITEMSIZE


def write_segment(name: str, arrays: List[Tuple[str, np.ndarray]]) -> SegmentSpec:
    """Create segment ``name`` holding ``arrays`` and return its spec.

    Called in the worker process.  The segment is unregistered from the
    creator's resource tracker (see the module docstring) and the
    worker's mapping is closed before returning — after this call only
    the named segment itself persists, waiting for the coordinator.
    """
    spec = SegmentSpec(
        name=name, fields=tuple((field, len(arr)) for field, arr in arrays)
    )
    shm = shared_memory.SharedMemory(
        create=True, size=max(spec.nbytes, 1), name=name
    )
    try:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
        offset = 0
        for _field, arr in arrays:
            view = np.ndarray(
                (len(arr),), dtype=np.int64, buffer=shm.buf, offset=offset
            )
            view[:] = arr
            offset += len(arr) * _ITEMSIZE
            del view
    finally:
        shm.close()
    return spec


@contextmanager
def attach_segment(spec: SegmentSpec) -> Iterator[Dict[str, np.ndarray]]:
    """Attach to ``spec``'s segment, yielding zero-copy int64 views.

    Called in the coordinator.  The yielded mapping's arrays alias the
    shared buffer directly — no deserialization, no copy.  Callers must
    not retain references past the ``with`` block (the mapping cannot be
    closed while views are exported); derived arrays (``np.concatenate``
    results etc.) are fine.  The block only detaches — call
    :func:`unlink_segment` afterwards to free the segment.
    """
    shm = shared_memory.SharedMemory(name=spec.name)
    views: Dict[str, np.ndarray] = {}
    offset = 0
    for field, count in spec.fields:
        views[field] = np.ndarray(
            (count,), dtype=np.int64, buffer=shm.buf, offset=offset
        )
        offset += count * _ITEMSIZE
    try:
        yield views
    finally:
        views.clear()
        shm.close()


def unlink_segment(name: str) -> bool:
    """Free segment ``name`` if it exists; ``True`` if one was removed.

    Tolerating absence makes this safe both as the post-consume cleanup
    and as the orphan sweep after a worker crash (where the coordinator
    cannot know which segments the worker got around to creating).  A
    worker killed between ``shm_open`` and ``ftruncate`` leaves a
    zero-length segment, which cannot be mapped; it is unlinked by name.
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    except ValueError:  # "cannot mmap an empty file"
        try:
            _posixshmem.shm_unlink("/" + name)
        except FileNotFoundError:
            return False
        return True
    shm.close()
    shm.unlink()
    return True
