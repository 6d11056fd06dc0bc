"""Durable campaign telemetry: the per-cell journal and cross-run queries.

PR 6 made a single run observable; everything it measures evaporates at
process exit.  This module is the durable layer underneath ROADMAP item 2
(sweep-as-a-service): every campaign execution appends its telemetry to a
``telemetry.jsonl`` journal living **next to the campaign ResultStore**, so
the store accumulates not only results but also the operational history of
how they were produced — queryable later by ``repro obs history`` /
``compare`` / ``cells`` / ``export`` without re-running anything.

Journal format — JSON lines, three record shapes sharing ``record`` +
``run_id`` (pinned by ``telemetry_record.schema.json`` next to this module,
validated with the same mini JSON-Schema validator the trace-event export
uses):

``run_start``
    One header per execution: campaign name, host block (from
    :mod:`repro.obs.hostinfo`), total cells, job count.
``cell``
    One line per cell the run computed: cell/config/trace content hashes,
    wall seconds, worker pid and ``source: "computed"``.  Cells served from
    the store get no line; the footer counts them.  (Older journals also
    hold ``source: "store"`` lines, cells naming their kernel and any
    fallback reason, and, from before the run path was unified,
    ``scheduler`` and ``frontend``; the schema keeps all of these, so they
    still validate, and the readers skip store lines.)
``run_end``
    One footer per execution: totals, elapsed wall time, cells/sec, and the
    run's merged metrics registry dump — which is what ``repro obs export``
    renders as OpenMetrics text after the fact.  (Older footers also carry
    a ``kernel_fallbacks`` tally.)

Writes are **append-only and atomic per line**: each record is a single
``os.write`` to an ``O_APPEND`` descriptor, so concurrent writers (several
sweeps sharing one store) interleave whole lines, never partial ones, and a
crash can only ever truncate the final line.  The reader skips such a torn
tail.  A later append that finds the file not ending in a newline closes
the torn line first: the same single write carries ``\n\n`` before the
record, so the torn line ends and a blank line marks it.  The reader skips
an unparseable line only when it is the last line or a blank line follows
it; a journal written whole never holds a blank line, so corruption
anywhere else still raises.  Appenders in one process (``repro serve``'s
request journal and its sweeps' journals share one file) hold one lock
across the tail check and the write, so none takes another's line in
flight for a torn one.
Like all of ``repro.obs`` the journal is opt-in and operational-only:
nothing here feeds result records, so simulation output stays bit-identical
with telemetry on or off.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.hostinfo import host_metadata
from repro.obs.traceevent import SchemaError, validate_payload

__all__ = [
    "SCHEMA_PATH",
    "SCHEMA_VERSION",
    "TelemetryJournal",
    "JournalRun",
    "load_schema",
    "validate_record",
    "read_journal",
    "load_runs",
    "resolve_journal",
    "resolve_run",
    "format_history",
    "compare_runs",
    "format_compare",
    "slowest_cells",
    "format_cells",
    "parse_openmetrics",
]

#: the checked-in schema every journal line must satisfy
SCHEMA_PATH = Path(__file__).parent / "telemetry_record.schema.json"

#: current journal record schema version (stamped into ``run_start``)
SCHEMA_VERSION = 1

#: held across an append's torn-tail check and its write
_APPEND_LOCK = threading.Lock()


def load_schema(path: Union[str, Path] = SCHEMA_PATH) -> dict:
    """Load the checked-in telemetry-record schema."""
    return json.loads(Path(path).read_text())


def validate_record(record: dict, schema: Optional[dict] = None) -> None:
    """Validate one journal record; raises :class:`SchemaError` on violation."""
    if schema is None:
        schema = load_schema()
    validate_payload(record, schema, "$")


def new_run_id() -> str:
    """A sortable, collision-safe run identifier (timestamp + random tail)."""
    return time.strftime("%Y%m%dT%H%M%S") + "-" + uuid.uuid4().hex[:6]


class TelemetryJournal:
    """Append-only writer for one execution's telemetry records.

    The executor drives the three-phase protocol: :meth:`run_start` once,
    :meth:`cell` per touched cell, :meth:`run_end` once.  Each record is
    serialised to a single line and appended with one ``os.write`` on an
    ``O_APPEND`` descriptor — POSIX guarantees append writes are atomic
    with respect to other appenders, so multiple processes can share one
    journal without interleaving partial lines.
    """

    def __init__(self, path: Union[str, Path], run_id: Optional[str] = None) -> None:
        self.path = Path(path)
        self.run_id = run_id or new_run_id()
        self.records_written = 0

    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            with _APPEND_LOCK:
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    # A crashed append left a torn last line: end it and mark
                    # it with a blank line, in the same write as this record.
                    data = b"\n\n" + data
                os.write(fd, data)
        finally:
            os.close(fd)
        self.records_written += 1

    # ------------------------------------------------------------------
    def run_start(self, campaign: str, cells_total: int, jobs: int) -> None:
        """Write the run header (host block, totals, job count)."""
        self._append(
            {
                "record": "run_start",
                "run_id": self.run_id,
                "schema": SCHEMA_VERSION,
                "campaign": campaign,
                "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "host": host_metadata(),
                "cells_total": int(cells_total),
                "jobs": int(jobs),
            }
        )

    def cell(self, **fields: object) -> None:
        """Write one per-cell record (fields per the journal schema)."""
        record = {"record": "cell", "run_id": self.run_id}
        record.update(fields)
        self._append(record)

    def serve_request(
        self,
        method: str,
        path: str,
        status: int,
        wall_seconds: float,
        client_gone: bool = False,
    ) -> None:
        """Write one served-HTTP-request record (``repro serve`` handling).

        Serve sessions share the journal with the sweeps they trigger: each
        submitted campaign runs under its own ``run_id`` (header, cells,
        footer as usual), while the request handling itself is journaled as
        ``serve_request`` lines under the server's session id.  A request
        whose client left before the reply carries ``client_gone: true``;
        the field is absent otherwise.
        """
        record: Dict[str, object] = {
            "record": "serve_request",
            "run_id": self.run_id,
            "method": str(method),
            "path": str(path),
            "status": int(status),
            "wall_seconds": max(0.0, float(wall_seconds)),
        }
        if client_gone:
            record["client_gone"] = True
        self._append(record)

    def run_end(
        self,
        cells_computed: int,
        cells_skipped: int,
        elapsed_seconds: float,
        metrics: Optional[dict] = None,
    ) -> None:
        """Write the run footer (totals, rate, metrics dump)."""
        total = int(cells_computed) + int(cells_skipped)
        record: Dict[str, object] = {
            "record": "run_end",
            "run_id": self.run_id,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "cells_total": total,
            "cells_computed": int(cells_computed),
            "cells_skipped": int(cells_skipped),
            "elapsed_seconds": float(elapsed_seconds),
            "cells_per_sec": (
                total / float(elapsed_seconds) if elapsed_seconds > 0 else 0.0
            ),
        }
        if metrics is not None:
            record["metrics"] = metrics
        self._append(record)


# ----------------------------------------------------------------------
# Reading & grouping
# ----------------------------------------------------------------------
@dataclass
class JournalRun:
    """One execution reconstructed from the journal: header, cells, footer."""

    run_id: str
    header: Optional[dict] = None
    footer: Optional[dict] = None
    cells: List[dict] = field(default_factory=list)

    @property
    def started(self) -> str:
        return str((self.header or {}).get("started", ""))

    @property
    def host(self) -> dict:
        block = (self.header or {}).get("host")
        return block if isinstance(block, dict) else {}

    @property
    def computed_cells(self) -> List[dict]:
        """Cells this run actually simulated (store hits excluded)."""
        return [cell for cell in self.cells if cell.get("source") == "computed"]


def read_journal(path: Union[str, Path]) -> List[dict]:
    """Every parseable record in a journal file, in file order.

    A torn line (crash mid-append) is skipped silently: the final line, or
    a line that a later append closed with a blank line.  A corrupt line
    anywhere else raises — that means the file is not a journal.
    """
    records: List[dict] = []
    lines = Path(path).read_text().splitlines()
    last = len(lines) - 1
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if index == last or not lines[index + 1].strip():
                continue
            raise
        records.append(record)
    return records


def resolve_journal(path: Union[str, Path]) -> Path:
    """Map a store (URL, directory, live object) or journal file onto the
    journal path.

    Accepts a live store (anything with a ``telemetry_path``), a store URL
    (``json:dir`` / ``sqlite:db`` — resolved without touching the
    filesystem), the journal file itself, a campaign store directory (the
    journal sits next to ``campaign.json``), or a path ending in the
    journal name that does not exist yet — the CLI reports that cleanly.
    """
    # Imported here: repro.campaign's package init imports the executor,
    # which imports this module.
    from repro.campaign.backends import journal_path, parse_store_url

    telemetry = getattr(path, "telemetry_path", None)
    if telemetry is not None:
        return Path(telemetry)
    text = str(path)
    if text.startswith(("json:", "sqlite:")):
        return journal_path(*parse_store_url(text))
    if Path(text).is_dir():
        return journal_path("json", text)
    return Path(text)


def load_runs(path: Union[str, Path]) -> List[JournalRun]:
    """All runs in a journal, grouped by ``run_id``, in first-seen order."""
    runs: Dict[str, JournalRun] = {}
    order: List[str] = []
    for record in read_journal(path):
        kind = record.get("record")
        if kind not in ("run_start", "run_end", "cell"):
            # Other record shapes sharing the journal (serve_request lines
            # from `repro serve`) are not campaign executions.
            continue
        run_id = str(record.get("run_id", ""))
        if run_id not in runs:
            runs[run_id] = JournalRun(run_id=run_id)
            order.append(run_id)
        run = runs[run_id]
        if kind == "run_start":
            run.header = record
        elif kind == "run_end":
            run.footer = record
        else:
            run.cells.append(record)
    return [runs[run_id] for run_id in order]


def resolve_run(runs: List[JournalRun], token: str) -> JournalRun:
    """Find one run by token: ``last``, ``prev``, or a unique run-id prefix."""
    if not runs:
        raise ValueError("journal contains no runs")
    if token == "last":
        return runs[-1]
    if token == "prev":
        if len(runs) < 2:
            raise ValueError("journal contains only one run; no 'prev'")
        return runs[-2]
    matches = [run for run in runs if run.run_id.startswith(token)]
    if not matches:
        known = ", ".join(run.run_id for run in runs)
        raise ValueError(f"no run matching {token!r}; journal has: {known}")
    if len(matches) > 1:
        ambiguous = ", ".join(run.run_id for run in matches)
        raise ValueError(f"{token!r} is ambiguous: {ambiguous}")
    return matches[0]


# ----------------------------------------------------------------------
# Queries (repro obs history / compare / cells / export)
# ----------------------------------------------------------------------
def format_history(runs: List[JournalRun]) -> str:
    """Tabulate every run in the journal: when, host, totals, rate."""
    from repro.analysis.reporting import format_table

    if not runs:
        return "journal contains no runs"
    rows: List[List[object]] = []
    for run in runs:
        footer = run.footer or {}
        host = run.host
        host_label = (
            f"{host.get('machine', '?')}/{host.get('cpu_count', '?')}cpu"
            if host
            else "?"
        )
        rate = footer.get("cells_per_sec")
        rows.append(
            [
                run.run_id,
                run.started or "?",
                host_label,
                footer.get("cells_computed", len(run.computed_cells)),
                footer.get("cells_skipped", "?"),
                f"{rate:.2f}" if isinstance(rate, (int, float)) else "?",
            ]
        )
    return format_table(
        ["run", "started", "host", "computed", "skipped", "cells/s"], rows
    )


def compare_runs(
    run_a: JournalRun, run_b: JournalRun, threshold_pct: float = 20.0
) -> dict:
    """Per-cell wall-time deltas between two runs of the same campaign.

    Only cells *computed* in both runs are compared — a store hit costs a
    probe, not a simulation, so its wall time says nothing about the code.
    Returns the per-cell rows (sorted by slowdown, worst first), the cells
    present on one side only, and the rows beyond ``threshold_pct``.
    """
    cells_a = {c["key"]: c for c in run_a.computed_cells if "key" in c}
    cells_b = {c["key"]: c for c in run_b.computed_cells if "key" in c}
    common = sorted(set(cells_a) & set(cells_b))
    rows = []
    for key in common:
        a, b = cells_a[key], cells_b[key]
        seconds_a = float(a.get("wall_seconds", 0.0))
        seconds_b = float(b.get("wall_seconds", 0.0))
        delta_pct = (
            (seconds_b / seconds_a - 1.0) * 100.0 if seconds_a > 0 else 0.0
        )
        rows.append(
            {
                "key": key,
                "benchmark": a.get("benchmark", "?"),
                "config": a.get("config", "?"),
                "a_seconds": seconds_a,
                "b_seconds": seconds_b,
                "delta_pct": delta_pct,
            }
        )
    rows.sort(key=lambda row: -row["delta_pct"])
    return {
        "run_a": run_a.run_id,
        "run_b": run_b.run_id,
        "cells": rows,
        "only_a": sorted(set(cells_a) - set(cells_b)),
        "only_b": sorted(set(cells_b) - set(cells_a)),
        "regressions": [row for row in rows if row["delta_pct"] > threshold_pct],
        "threshold_pct": threshold_pct,
    }


def format_compare(comparison: dict) -> str:
    """Human rendering of :func:`compare_runs` (worst slowdown first)."""
    from repro.analysis.reporting import format_table

    lines = [f"compare {comparison['run_a']} -> {comparison['run_b']}"]
    rows = comparison["cells"]
    if not rows:
        lines.append(
            "no cells computed in both runs (store hits are not comparable)"
        )
    else:
        table_rows = [
            [
                row["benchmark"],
                row["config"],
                f"{row['a_seconds'] * 1000.0:.1f}",
                f"{row['b_seconds'] * 1000.0:.1f}",
                f"{row['delta_pct']:+.1f}%",
            ]
            for row in rows
        ]
        lines.append(
            format_table(
                ["benchmark", "config", "a (ms)", "b (ms)", "delta"], table_rows
            )
        )
    for side, keys in (("A", comparison["only_a"]), ("B", comparison["only_b"])):
        if keys:
            lines.append(f"{len(keys)} cell(s) computed only in run {side}")
    regressions = comparison["regressions"]
    if regressions:
        lines.append(
            f"{len(regressions)} cell(s) slower than "
            f"+{comparison['threshold_pct']:g}%:"
        )
        for row in regressions:
            lines.append(
                f"  {row['benchmark']}/{row['config']}: {row['delta_pct']:+.1f}%"
            )
    return "\n".join(lines)


def slowest_cells(run: JournalRun, limit: int = 10) -> List[dict]:
    """The run's computed cells, slowest first, capped at ``limit``."""
    cells = sorted(
        run.computed_cells,
        key=lambda cell: -float(cell.get("wall_seconds", 0.0)),
    )
    return cells[: max(0, limit)]


def format_cells(run: JournalRun, cells: List[dict]) -> str:
    """Human rendering of :func:`slowest_cells`."""
    from repro.analysis.reporting import format_table

    if not cells:
        return f"run {run.run_id}: no computed cells"
    rows = [
        [
            cell.get("benchmark", "?"),
            cell.get("config", "?"),
            f"{float(cell.get('wall_seconds', 0.0)) * 1000.0:.1f}",
            cell.get("worker_pid", "?"),
        ]
        for cell in cells
    ]
    header = f"run {run.run_id}: {len(cells)} slowest computed cells"
    return header + "\n" + format_table(["benchmark", "config", "ms", "pid"], rows)


# ----------------------------------------------------------------------
# OpenMetrics round-trip check
# ----------------------------------------------------------------------
def parse_openmetrics(text: str) -> Dict[str, float]:
    """Parse OpenMetrics text back into ``{sample_name: value}``.

    A deliberately strict reader of the subset
    :func:`repro.obs.metrics.render_openmetrics` emits — the CI smoke job
    and tests use it to assert the export actually parses.  Bucket samples
    keep their label (``name_bucket{le="0.5"}``) in the key.  Raises
    ``ValueError`` on malformed lines or a missing ``# EOF`` terminator.
    """
    samples: Dict[str, float] = {}
    saw_eof = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"content after # EOF: {line!r}")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "TYPE":
                raise ValueError(f"unrecognised comment line: {line!r}")
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed sample line: {line!r}")
        try:
            value = float(value_part)
        except ValueError:
            raise ValueError(f"non-numeric sample value in: {line!r}") from None
        if name_part in samples:
            raise ValueError(f"duplicate sample: {name_part!r}")
        samples[name_part] = value
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    return samples


def _journal_schema_errors(
    path: Union[str, Path], schema: Optional[dict] = None
) -> List[Tuple[int, str]]:
    """(record number, message) for every schema-invalid journal record."""
    if schema is None:
        schema = load_schema()
    errors: List[Tuple[int, str]] = []
    for number, record in enumerate(read_journal(path), start=1):
        try:
            validate_record(record, schema)
        except SchemaError as error:
            errors.append((number, str(error)))
    return errors
