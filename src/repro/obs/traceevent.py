"""Chrome trace-event (catapult) JSON export, plus schema validation.

:class:`TraceEventLog` accumulates events in the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by Perfetto and ``chrome://tracing`` and writes the standard
``{"traceEvents": [...]}`` JSON object.  Two producers use it:

* the campaign/DSE layer emits **wall-clock spans** — one complete event
  (``ph: "X"``) per executed cell, grouped by worker process, with instant
  events (``ph: "i"``) marking halving-rung boundaries and counter tracks
  for store hits;
* ``repro report --timeline`` emits a **sampled simulator timeline** — the
  occupancy series a :class:`~repro.obs.collector.RunCollector` gathered,
  rendered as counter events (``ph: "C"``) over the cycle axis (1 cycle =
  1 us, so the viewer's time axis reads directly in cycles).

The emitted shape is pinned by ``trace_event.schema.json`` next to this
module (checked in, validated by the tests and the CI obs-smoke job).
:func:`validate_trace_events` checks a payload against that schema with a
small built-in validator — the repository deliberately adds no third-party
dependency for this; the subset of JSON Schema the validator understands
(type/properties/required/items/enum) is exactly what the schema uses.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

__all__ = [
    "TraceEventLog",
    "SCHEMA_PATH",
    "load_schema",
    "validate_payload",
    "validate_trace_events",
    "SchemaError",
]

#: the checked-in schema every emitted trace must satisfy
SCHEMA_PATH = Path(__file__).parent / "trace_event.schema.json"


class TraceEventLog:
    """An in-memory trace-event collection with typed append helpers.

    Timestamps (``ts``/``dur``) are microseconds, per the format.  Producers
    pick their own time base: wall-clock spans use epoch microseconds,
    simulator timelines use *cycles* as microseconds (a pure relabeling that
    makes the viewer's axis read in cycles).
    """

    def __init__(self) -> None:
        self.events: List[dict] = []
        self._named_processes: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Metadata (names shown by the viewer)
    # ------------------------------------------------------------------
    def name_process(self, pid: int, name: str) -> None:
        """Label process ``pid`` in the viewer (idempotent)."""
        if self._named_processes.get(pid) == name:
            return
        self._named_processes[pid] = name
        self.events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )

    # ------------------------------------------------------------------
    # Event appenders
    # ------------------------------------------------------------------
    def add_span(
        self,
        name: str,
        category: str,
        ts_us: float,
        dur_us: float,
        pid: int = 0,
        tid: int = 0,
        args: Optional[Mapping[str, object]] = None,
    ) -> None:
        """One complete event (``ph: "X"``): a bar from ``ts`` for ``dur``."""
        event = {
            "name": name,
            "cat": category,
            "ph": "X",
            "ts": ts_us,
            "dur": max(0.0, dur_us),
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        self.events.append(event)

    def add_instant(
        self,
        name: str,
        category: str,
        ts_us: float,
        pid: int = 0,
        tid: int = 0,
        args: Optional[Mapping[str, object]] = None,
    ) -> None:
        """One instant event (``ph: "i"``, thread scope): a vertical marker."""
        event = {
            "name": name,
            "cat": category,
            "ph": "i",
            "s": "t",
            "ts": ts_us,
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        self.events.append(event)

    def add_counter(
        self,
        name: str,
        category: str,
        ts_us: float,
        series: Mapping[str, float],
        pid: int = 0,
    ) -> None:
        """One counter sample (``ph: "C"``): stacked series at ``ts``."""
        self.events.append(
            {
                "name": name,
                "cat": category,
                "ph": "C",
                "ts": ts_us,
                "pid": pid,
                "tid": 0,
                "args": dict(series),
            }
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def as_dict(self) -> dict:
        """The standard JSON object shape (``traceEvents`` + time unit)."""
        return {"traceEvents": list(self.events), "displayTimeUnit": "ms"}

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.as_dict(), sort_keys=True)

    def write(self, path: Union[str, Path]) -> Path:
        """Write the trace JSON to ``path`` (parents created); returns it."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n")
        return target


# ----------------------------------------------------------------------
# Schema validation (dependency-free subset of JSON Schema)
# ----------------------------------------------------------------------
class SchemaError(ValueError):
    """A payload violated the trace-event schema (message carries the path)."""


def load_schema(path: Union[str, Path] = SCHEMA_PATH) -> dict:
    """Load the checked-in trace-event schema."""
    return json.loads(Path(path).read_text())


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


def _validate(value, schema: dict, path: str) -> None:
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[kind](value) for kind in allowed):
            raise SchemaError(
                f"{path}: expected {'/'.join(allowed)}, got {type(value).__name__}"
            )
    if "enum" in schema and value not in schema["enum"]:
        raise SchemaError(f"{path}: {value!r} not one of {schema['enum']}")
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                raise SchemaError(f"{path}: missing required property {name!r}")
        properties = schema.get("properties", {})
        for name, subschema in properties.items():
            if name in value:
                _validate(value[name], subschema, f"{path}.{name}")
    if isinstance(value, list):
        items = schema.get("items")
        if items is not None:
            for index, item in enumerate(value):
                _validate(item, items, f"{path}[{index}]")
    minimum = schema.get("minimum")
    if minimum is not None and isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < minimum:
            raise SchemaError(f"{path}: {value} below minimum {minimum}")


def validate_payload(value, schema: dict, path: str = "$") -> None:
    """Validate any JSON value against a mini-schema (shared entry point).

    The same dependency-free subset :func:`validate_trace_events` uses
    (type/properties/required/items/enum/minimum), exposed for other
    checked-in schemas — the telemetry journal validates its records
    against ``telemetry_record.schema.json`` through this.  Raises
    :class:`SchemaError` on the first violation.
    """
    _validate(value, schema, path)


def validate_trace_events(
    payload: Union[dict, str], schema: Optional[dict] = None
) -> int:
    """Validate a trace-event payload; returns the number of events.

    ``payload`` is the ``{"traceEvents": [...]}`` object (or its JSON
    string).  Raises :class:`SchemaError` on the first violation, with a
    JSON-path-style location in the message.
    """
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as error:
            raise SchemaError(f"payload is not valid JSON: {error}") from None
    if schema is None:
        schema = load_schema()
    _validate(payload, schema, "$")
    return len(payload["traceEvents"])
