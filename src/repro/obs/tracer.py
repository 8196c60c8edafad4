"""The tracer and the process-global tracing switch.

Design constraints (see ``docs/observability.md``):

* **Zero-cost-when-off.**  Instrumented call sites go through the
  module-level :func:`span` helper.  With no tracer installed it is one
  global ``None`` check plus a trivial no-op — no allocation, no clock
  read — so the bench suite's deterministic counters are bit-identical
  with tracing on or off (asserted by ``tests/test_obs_integration.py``).
* **Determinism-safe.**  The only wall-clock read is
  :func:`repro.serving.stats.wall_clock` — the same sanctioned seam the
  serving telemetry uses — and timestamps live only in span telemetry
  fields, never in the deterministic counters.
* **Thread-safe.**  The serving layer runs ingest, dispatch, and worker
  threads concurrently.  Span nesting is tracked per thread
  (``threading.local``); finished records append under one lock; each
  thread gets a stable small index for the Chrome trace ``tid``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from .span import NOOP_SPAN, AttrValue, Span, SpanRecord

__all__ = [
    "Tracer",
    "active_tracer",
    "tracing_enabled",
    "install",
    "uninstall",
    "tracing",
    "span",
]


def _sanctioned_clock() -> Callable[[], float]:
    """The repo's single wall-clock seam, imported lazily.

    Instrumented modules (``core/``, ``accel/``) import ``repro.obs`` at
    module level while ``repro.serving`` imports them back; binding the
    clock at :class:`Tracer` construction time (tracing is only ever
    switched on long after import) keeps the layers acyclic without
    duplicating the DET001-sanctioned wall-clock read.
    """
    from ..serving.stats import wall_clock

    return wall_clock


class Tracer:
    """Collects the spans of one traced run."""

    def __init__(self, name: str = "repro"):
        self.name = name
        wall_clock = _sanctioned_clock()
        self._clock = wall_clock
        self._epoch = wall_clock()
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._local = threading.local()
        self._next_span_id = 1
        self._threads: Dict[int, int] = {}  # thread ident -> stable index
        self._thread_names: List[str] = []  # index -> name at first span

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: AttrValue) -> Span:
        """A new span, to be entered with ``with``."""
        return Span(self, name, attrs)

    def _now_us(self) -> int:
        return int((self._clock() - self._epoch) * 1e6)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _thread_index(self) -> int:
        ident = threading.get_ident()
        index = self._threads.get(ident)
        if index is None:
            with self._lock:
                index = self._threads.get(ident)
                if index is None:
                    index = len(self._threads)
                    self._threads[ident] = index
                    self._thread_names.append(threading.current_thread().name)
        return index

    def _begin(self, live: Span) -> int:
        stack = self._stack()
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
        parent_id = stack[-1][0] if stack else None
        stack.append((span_id, parent_id, len(stack)))
        return self._now_us()

    def _end(self, live: Span, start_us: int) -> None:
        end_us = self._now_us()
        stack = self._stack()
        span_id, parent_id, depth = stack.pop()
        record = SpanRecord(
            name=live.name,
            span_id=span_id,
            parent_id=parent_id,
            thread=self._thread_index(),
            depth=depth,
            start_us=start_us,
            duration_us=max(end_us - start_us, 0),
            attrs=live.attrs,
            counters=live.counters,
        )
        with self._lock:
            self._records.append(record)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[SpanRecord]:
        """Finished spans, ordered by start time (ties by span id)."""
        with self._lock:
            records = list(self._records)
        return sorted(records, key=lambda r: (r.start_us, r.span_id))

    def thread_names(self) -> List[str]:
        """Stable-index -> thread-name mapping (Chrome trace metadata)."""
        with self._lock:
            return list(self._thread_names)

    def find(self, name: str) -> List[SpanRecord]:
        """All finished spans with exactly this name (test helper)."""
        return [r for r in self.records if r.name == name]

    def __repr__(self) -> str:
        return f"Tracer({self.name!r}, spans={len(self._records)})"


# ---------------------------------------------------------------------------
# The process-global switch
# ---------------------------------------------------------------------------
_ACTIVE: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is off."""
    return _ACTIVE


def tracing_enabled() -> bool:
    """Whether a tracer is currently installed."""
    return _ACTIVE is not None


def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-global tracer (error if one is active)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError(
            f"a tracer is already installed ({_ACTIVE!r}); uninstall it first"
        )
    _ACTIVE = tracer
    return tracer


def uninstall() -> Optional[Tracer]:
    """Remove and return the installed tracer (no-op when none)."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a tracer for the duration of a ``with`` block."""
    active = install(tracer if tracer is not None else Tracer())
    try:
        yield active
    finally:
        uninstall()


def span(name: str, **attrs: AttrValue):
    """A span on the installed tracer, or the shared no-op when off.

    The instrumentation entry point: ``with obs.span("tiling") as sp:``.
    Disabled cost: one global read and a shared-singleton return.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)

