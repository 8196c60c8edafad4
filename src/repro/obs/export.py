"""Trace exporters: Chrome trace-event JSON and JSONL span logs.

The Chrome format is the ``chrome://tracing`` / Perfetto interchange
format — a ``traceEvents`` list of complete (``"ph": "X"``) duration
events plus thread-name metadata (``"ph": "M"``) events.  Open the file
at https://ui.perfetto.dev (or ``chrome://tracing``) to see the planner,
simulator, and serving phases on their threads' timelines.

:func:`validate_trace_events` is a dependency-free structural check of
that schema; CI runs it on the smoke trace artifact so an exporter
regression cannot silently produce files Perfetto rejects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from .tracer import Tracer

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_span_jsonl",
    "validate_trace_events",
    "validate_trace_file",
]

#: exported trace schema: 1 = one implicit pid track, 2 = every pid track
#: carries a ``process_name`` metadata event
TRACE_SCHEMA_VERSION = 2

#: the ``pid`` every span of the traced process lands on
_PID = 0


def chrome_trace_events(tracer: Tracer) -> Dict[str, object]:
    """The tracer's spans as a Chrome trace-event JSON object.

    Every span lands on ``pid`` 0, one ``tid`` per thread, with
    ``process_name``/``thread_name`` metadata naming the tracks.
    """
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": tracer.name},
        }
    ]
    for index, name in enumerate(tracer.thread_names()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": index,
                "args": {"name": name},
            }
        )
    for record in tracer.records:
        args: Dict[str, object] = dict(record.attrs)
        # Namespaced so a counter can never shadow a same-named attribute.
        for counter, value in sorted(record.counters.items()):
            args[f"counter.{counter}"] = value
        events.append(
            {
                "name": record.name,
                "cat": "repro",
                "ph": "X",
                "pid": _PID,
                "tid": record.thread,
                "ts": record.start_us,
                "dur": record.duration_us,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tracer": tracer.name,
            "schema": TRACE_SCHEMA_VERSION,
            "spans": len(tracer.records),
        },
    }


def write_chrome_trace(tracer: Tracer, path: Union[str, Path]) -> Path:
    """Write the Chrome trace-event JSON for ``tracer`` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace_events(tracer), indent=1))
    return path


def write_span_jsonl(tracer: Tracer, path: Union[str, Path]) -> Path:
    """Write one JSON object per finished span to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(r.as_dict()) for r in tracer.records]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------
def _check_event(event: object, index: int, errors: List[str]) -> None:
    where = f"traceEvents[{index}]"
    if not isinstance(event, dict):
        errors.append(f"{where}: not an object")
        return
    phase = event.get("ph")
    if phase not in ("X", "M"):
        errors.append(f"{where}: unsupported or missing phase {phase!r}")
        return
    if not isinstance(event.get("name"), str) or not event["name"]:
        errors.append(f"{where}: missing/empty name")
    for key in ("pid", "tid"):
        if not isinstance(event.get(key), int):
            errors.append(f"{where}: {key} must be an integer")
    if "args" in event and not isinstance(event["args"], dict):
        errors.append(f"{where}: args must be an object")
    if phase == "M":
        if event.get("name") not in ("thread_name", "process_name"):
            errors.append(
                f"{where}: metadata event must be thread_name or "
                f"process_name, got {event.get('name')!r}"
            )
        args = event.get("args")
        if not isinstance(args, dict) or not isinstance(
            args.get("name"), str
        ):
            errors.append(f"{where}: metadata args.name must be a string")
    if phase == "X":
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{where}: {key} must be a number")
            elif value < 0:
                errors.append(f"{where}: {key} must be >= 0, got {value}")


def validate_trace_events(payload: object) -> List[str]:
    """Structural errors in a Chrome trace-event payload (empty = valid).

    Schema 2 adds a per-process rule for traces from any source: when
    duration events span more than one ``pid`` track, every such track
    must carry a ``process_name`` metadata event, or Perfetto renders
    the track as a bare pid number.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["top level must be an object with a traceEvents list"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    span_pids = set()
    named_pids = set()
    for index, event in enumerate(events):
        _check_event(event, index, errors)
        if isinstance(event, dict) and isinstance(event.get("pid"), int):
            if event.get("ph") == "X":
                span_pids.add(event["pid"])
            elif (
                event.get("ph") == "M"
                and event.get("name") == "process_name"
            ):
                named_pids.add(event["pid"])
    if len(span_pids) > 1:
        for pid in sorted(span_pids - named_pids):
            errors.append(
                f"multi-process trace: pid {pid} has duration events but "
                "no process_name metadata event"
            )
    return errors


def validate_trace_file(path: Union[str, Path]) -> List[str]:
    """Validate a trace-event JSON file on disk (empty list = valid)."""
    path = Path(path)
    try:
        payload: Optional[object] = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable trace ({exc})"]
    return validate_trace_events(payload)
