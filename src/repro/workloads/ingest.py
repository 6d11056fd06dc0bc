"""Streaming ingestion of externally captured memory traces.

The paper evaluates MALEC on *traced* application workloads; this module
opens the simulator to the same kind of input.  Three text formats parse
straight into :class:`~repro.workloads.columnar.ColumnarTrace` columns, each
record appended to the one :class:`~repro.workloads.columnar.TraceWriter`:

``lackey``
    valgrind's ``--tool=lackey --trace-mem=yes`` output: one access per
    line, ``I addr,size`` (instruction fetch), `` L addr,size`` (data load),
    `` S addr,size`` (data store), `` M addr,size`` (modify = load+store).
    Instruction fetches become compute instructions — the simulator models
    the data side, the fetch only occupies the pipeline.  valgrind banner
    lines (``==pid==`` / ``--pid--``) are skipped.

``din``
    The classic Dinero/DineroIV format: ``<label> <hexaddress>`` per line
    with label ``0`` read, ``1`` write, ``2`` instruction fetch; extra
    columns are ignored.  Accesses default to 4 bytes (the format carries no
    size).

``csv``
    This repository's documented dialect: a ``kind,address,size,deps``
    header, then one instruction per row.  ``kind`` is ``load``/``store``/
    ``compute``; ``address`` accepts decimal or ``0x`` hex; ``size``
    defaults to 4; ``deps`` is a ``;``-separated list of backward distances.

All parsers stream line by line (constant memory), accept gzip-compressed
files transparently and report malformed input with the offending line
number, including a field that does not fit its ``.rtrc`` width (a negative
or 65-bit address, a size above 65535, more than 255 deps, a 33-bit
distance).  :func:`load_trace` sniffs the format from the file extension and
also reads the ``.rtrc``/``.jsonl`` formats the repository itself writes
(:func:`~repro.workloads.binfmt.dump_rtrc`, :func:`dump_jsonl`).

Trace transforms compose ingestion into experiment-ready workloads:
:func:`window` (region of interest), :func:`skip_warmup`, :func:`subsample`
(stride sampling) and :func:`interleave` (round-robin merging of several
traces into one multiprogrammed workload, with dependency distances remapped
exactly across the interleaving).  Each takes anything with a ``columnar()``
view and returns a new :class:`~repro.workloads.columnar.ColumnarTrace`.
"""

from __future__ import annotations

import csv as _csv
import gzip
import json
import time
from pathlib import Path
from typing import IO, Iterable, List, Optional, Sequence, Union

from repro.memory.address import DEFAULT_LAYOUT, AddressLayout
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger
from repro.workloads.binfmt import _LAYOUT_FIELDS, TraceFormatError
from repro.workloads.columnar import KIND_NAMES, ColumnarTrace, TraceWriter
from repro.workloads.registry import (  # noqa: F401  (re-exported API)
    TraceHandle,
    register_trace,
    registered_handle,
    registered_names,
    registered_trace,
)

logger = get_logger(__name__)

#: text-format names accepted by :func:`parse_lines` / the ``--format`` flag
TEXT_FORMATS = ("lackey", "din", "csv")

#: every format :func:`load_trace` reads
TRACE_FORMATS = TEXT_FORMATS + ("rtrc", "jsonl")

#: extension -> format sniffing table (``.gz`` is stripped first)
_EXTENSION_FORMATS = {
    ".lackey": "lackey",
    ".vgtrace": "lackey",
    ".trace": "lackey",
    ".din": "din",
    ".csv": "csv",
    ".rtrc": "rtrc",
    ".jsonl": "jsonl",
}


class TraceParseError(ValueError):
    """A malformed line in an external trace file (message carries line number)."""


#: kind code of each kind name (CSV ``kind`` cells, JSONL ``k`` values)
_CODES_BY_NAME = {name: code for code, name in enumerate(KIND_NAMES)}


def _open_text(path: Union[str, Path], mode: str = "r") -> IO[str]:
    """Open ``path`` as text, transparently gzipped for ``.gz`` names."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t")
    return open(path, mode)


def _add(
    writer: TraceWriter,
    source: str,
    number: int,
    kind: int,
    address: int = 0,
    size: int = 4,
    deps: Sequence[int] = (),
) -> None:
    """Append one record, naming input line ``number`` if the writer rejects it.

    ``TypeError`` covers JSONL fields of the wrong JSON type.
    """
    try:
        writer.add(kind, address, size, deps)
    except (TraceFormatError, TypeError) as error:
        raise TraceParseError(f"{source}: line {number}: {error}") from None


# ----------------------------------------------------------------------
# Text-format parsers (streaming, line-numbered diagnostics)
# ----------------------------------------------------------------------
def parse_lackey(
    lines: Iterable[str],
    name: str = "lackey",
    layout: AddressLayout = DEFAULT_LAYOUT,
    source: str = "<lackey>",
) -> ColumnarTrace:
    """Parse valgrind lackey ``--trace-mem`` output into a trace."""
    writer = TraceWriter()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("==", "--")):
            continue
        try:
            op, rest = stripped.split(None, 1)
            address_text, size_text = rest.split(",", 1)
            address = int(address_text, 16)
            size = int(size_text.strip(), 10)
        except ValueError:
            raise TraceParseError(
                f"{source}: line {number}: malformed lackey record {stripped!r} "
                "(expected 'I|L|S|M address,size')"
            ) from None
        if size <= 0:
            raise TraceParseError(
                f"{source}: line {number}: non-positive access size {size}"
            )
        if op == "I":
            _add(writer, source, number, 0)
        elif op in ("L", "S"):
            _add(writer, source, number, 1 if op == "L" else 2, address, size)
        elif op == "M":
            # A modify is a load followed by a store of the same location.
            _add(writer, source, number, 1, address, size)
            _add(writer, source, number, 2, address, size)
        else:
            raise TraceParseError(
                f"{source}: line {number}: unknown lackey operation {op!r} "
                "(expected I, L, S or M)"
            )
    return writer.finish(name, layout=layout)


def parse_dinero(
    lines: Iterable[str],
    name: str = "din",
    layout: AddressLayout = DEFAULT_LAYOUT,
    source: str = "<din>",
) -> ColumnarTrace:
    """Parse a Dinero ``.din`` reference stream into a trace."""
    writer = TraceWriter()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) < 2:
            raise TraceParseError(
                f"{source}: line {number}: malformed din record {stripped!r} "
                "(expected '<label> <hexaddress>')"
            )
        label = parts[0]
        try:
            address = int(parts[1], 16)
        except ValueError:
            raise TraceParseError(
                f"{source}: line {number}: bad din address {parts[1]!r}"
            ) from None
        if label in ("0", "1"):
            _add(writer, source, number, 1 if label == "0" else 2, address, 4)
        elif label == "2":
            _add(writer, source, number, 0)
        else:
            raise TraceParseError(
                f"{source}: line {number}: unknown din label {label!r} "
                "(expected 0=read, 1=write, 2=ifetch)"
            )
    return writer.finish(name, layout=layout)


def parse_csv(
    lines: Iterable[str],
    name: str = "csv",
    layout: AddressLayout = DEFAULT_LAYOUT,
    source: str = "<csv>",
) -> ColumnarTrace:
    """Parse the documented ``kind,address,size,deps`` CSV dialect."""
    reader = _csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceParseError(f"{source}: empty file (expected a CSV header)") from None
    columns = [column.strip().lower() for column in header]
    if "kind" not in columns or "address" not in columns:
        raise TraceParseError(
            f"{source}: line 1: CSV header must name 'kind' and 'address' "
            f"columns, got {columns}"
        )
    kind_at = columns.index("kind")
    address_at = columns.index("address")
    size_at = columns.index("size") if "size" in columns else None
    deps_at = columns.index("deps") if "deps" in columns else None

    def cell(row: List[str], index: Optional[int]) -> str:
        if index is None or index >= len(row):
            return ""
        return row[index].strip()

    writer = TraceWriter()
    for number, row in enumerate(reader, start=2):
        if not row or all(not field.strip() for field in row):
            continue
        kind_text = cell(row, kind_at).lower()
        try:
            deps_text = cell(row, deps_at)
            deps = [int(part) for part in deps_text.split(";") if part.strip()]
            kind = _CODES_BY_NAME[kind_text]
            address, size = 0, 4  # a compute row's address and size are ignored
            if kind:
                address = int(cell(row, address_at), 0)
                size_text = cell(row, size_at)
                size = int(size_text, 0) if size_text else 4
        except (KeyError, ValueError):
            raise TraceParseError(
                f"{source}: line {number}: malformed CSV instruction {row!r} "
                "(kind must be load/store/compute with a valid address/size/deps)"
            ) from None
        _add(writer, source, number, kind, address, size, deps)
    return writer.finish(name, layout=layout)


def parse_jsonl(lines: Iterable[str], source: str = "<jsonl>") -> ColumnarTrace:
    """Parse the JSON-lines format :func:`dump_jsonl` writes.

    The first line is the header (name, suite, address layout); every
    following non-blank line is one record.
    """
    lines = iter(lines)
    header_line = next(lines, "")
    if not header_line.strip():
        raise TraceParseError(f"{source}: empty trace file")
    try:
        header = json.loads(header_line)
        name, suite = header["name"], header.get("suite", "")
        layout = AddressLayout(**header["layout"])
    except (KeyError, TypeError, ValueError) as error:
        raise TraceParseError(f"{source}: line 1: malformed JSONL header ({error})") from None
    writer = TraceWriter()
    for number, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            kind = _CODES_BY_NAME[record["k"]]
            address = record["a"] if kind else record.get("a") or 0
            size, deps = record.get("s", 4), record.get("d", ())
        except (KeyError, TypeError, ValueError) as error:
            raise TraceParseError(
                f"{source}: line {number}: malformed JSONL record ({error!r})"
            ) from None
        _add(writer, source, number, kind, address, size, deps)
    return writer.finish(name, suite, layout)


def dump_jsonl(trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` as JSON lines; ``.gz`` paths are gzip-compressed.

    The first line is a header object carrying the trace metadata (name,
    suite, address layout); every following line is one record.  Compute
    records carry only their kind and deps, so they serialize to a few
    bytes.  ``trace`` is anything with a ``columnar()`` view.
    """
    path = Path(path)
    trace = trace.columnar()
    layout = trace.layout
    header = {
        "name": trace.name,
        "suite": trace.suite,
        "layout": {field: getattr(layout, field) for field in _LAYOUT_FIELDS},
    }
    pool, offsets = trace.deps_pool, trace.dep_offsets()
    addresses, sizes, ndeps = trace.addresses, trace.sizes, trace.ndeps
    with _open_text(path, "w") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for seq, kind in enumerate(trace.kinds):
            record = {"k": KIND_NAMES[kind]}
            if kind:
                record["a"] = addresses[seq]
                record["s"] = sizes[seq]
            if ndeps[seq]:
                record["d"] = pool[offsets[seq] : offsets[seq + 1]].tolist()
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


_TEXT_PARSERS = {
    "lackey": parse_lackey,
    "din": parse_dinero,
    "csv": parse_csv,
}


# ----------------------------------------------------------------------
# Format sniffing and the central loader
# ----------------------------------------------------------------------
def sniff_format(path: Union[str, Path]) -> Optional[str]:
    """The trace format implied by ``path``'s extension (``None`` if unknown)."""
    name = Path(path).name
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    return _EXTENSION_FORMATS.get(Path(name).suffix.lower())


def load_trace(
    path: Union[str, Path],
    fmt: str = "auto",
    name: Optional[str] = None,
    layout: AddressLayout = DEFAULT_LAYOUT,
) -> ColumnarTrace:
    """Load a trace from any supported format (gzip-aware).

    ``fmt`` is one of :data:`TRACE_FORMATS` or ``"auto"`` (sniff from the
    extension).  ``name`` overrides the trace's display name (text formats
    default to the file stem; ``.rtrc``/``.jsonl`` embed their own).
    """
    path = Path(path)
    if fmt == "auto":
        fmt = sniff_format(path)
        if fmt is None:
            raise TraceParseError(
                f"{path}: cannot infer the trace format from the extension; "
                f"pass an explicit format from {', '.join(TRACE_FORMATS)}"
            )
    started = time.perf_counter()
    if fmt == "rtrc":
        trace = ColumnarTrace.load(path)
    elif fmt == "jsonl":
        with _open_text(path) as handle:
            trace = parse_jsonl(handle, source=str(path))
    elif fmt in _TEXT_PARSERS:
        stem = path.name[: -len(".gz")] if path.name.endswith(".gz") else path.name
        default_name = Path(stem).stem
        with _open_text(path) as handle:
            trace = _TEXT_PARSERS[fmt](
                handle, name=default_name, layout=layout, source=str(path)
            )
    else:
        raise TraceParseError(
            f"unknown trace format {fmt!r}; choose from {', '.join(TRACE_FORMATS)}"
        )
    elapsed = time.perf_counter() - started
    logger.debug(
        "ingest: loaded %d records from %s (%s) in %.3fs",
        len(trace),
        path,
        fmt,
        elapsed,
    )
    if obs_metrics.enabled():
        registry = obs_metrics.registry
        registry.counter("ingest.records").inc(len(trace))
        registry.counter("ingest.files").inc()
        registry.gauge("ingest.records_per_sec").set(
            len(trace) / elapsed if elapsed > 0 else 0.0
        )
    if name is not None:
        trace.name = name
    return trace


# ----------------------------------------------------------------------
# Transforms
# ----------------------------------------------------------------------
def window(trace, start: int, stop: Optional[int] = None) -> ColumnarTrace:
    """The region-of-interest slice ``[start, stop)`` of ``trace``.

    ``stop`` follows slice rules (``None`` is the end, a negative value
    counts from it).  The records and their slice of the dependency pool are
    copied as they are: distances that point before the window start are
    ignored at dispatch (the pipeline's normal rule for trace-relative
    producers), exactly as with warm-up slicing.
    """
    if start < 0:
        raise ValueError("window start must be >= 0")
    trace = trace.columnar()
    bounds = range(len(trace))[start:stop]
    writer = TraceWriter()
    writer.extend(trace, bounds.start, max(bounds.start, bounds.stop))
    return writer.finish(trace.name, trace.suite, trace.layout)


def skip_warmup(trace, count: int) -> ColumnarTrace:
    """Drop the first ``count`` instructions (external warm-up phases)."""
    if count < 0:
        raise ValueError("warm-up skip count must be >= 0")
    return window(trace, count)


def subsample(trace, stride: int) -> ColumnarTrace:
    """Keep every ``stride``-th instruction (stride sampling for long traces).

    Dependency annotations are dropped: their backward distances refer to
    instructions the sampling removed.  Stride 1 keeps every record, so it
    keeps the deps too.
    """
    if stride < 1:
        raise ValueError("subsample stride must be >= 1")
    if stride == 1:
        return window(trace, 0)
    trace = trace.columnar()
    writer = TraceWriter()
    add = writer.add
    kinds, addresses, sizes = trace.kinds, trace.addresses, trace.sizes
    for seq in range(0, len(trace), stride):
        add(kinds[seq], addresses[seq], sizes[seq])
    return writer.finish(trace.name, trace.suite, trace.layout)


def interleave(
    traces: Sequence,
    granularity: int = 64,
    name: Optional[str] = None,
) -> ColumnarTrace:
    """Round-robin interleave several traces into one multiprogrammed workload.

    Chunks of ``granularity`` instructions are taken from each trace in turn
    until all are exhausted (shorter traces simply drop out).  Dependency
    distances are remapped *exactly*: every producer/consumer pair of a
    source trace still links the same two instructions in the merged trace,
    however many foreign chunks the interleaving put between them.  A
    distance that points before its source trace's start is dropped.

    The merged trace uses the first trace's address layout (interleaving
    traces captured under different layouts is not meaningful).
    """
    if not traces:
        raise ValueError("interleave needs at least one trace")
    if granularity < 1:
        raise ValueError("interleave granularity must be >= 1")
    traces = [trace.columnar() for trace in traces]
    writer = TraceWriter()
    add = writer.add
    merged = 0
    cursors = [0] * len(traces)
    out_positions: List[List[int]] = [[0] * len(trace) for trace in traces]
    while True:
        emitted = False
        for index, trace in enumerate(traces):
            start = cursors[index]
            stop = min(start + granularity, len(trace))
            if start >= stop:
                continue
            emitted = True
            positions = out_positions[index]
            kinds, addresses, sizes = trace.kinds, trace.addresses, trace.sizes
            ndeps, pool, offsets = trace.ndeps, trace.deps_pool, trace.dep_offsets()
            for at in range(start, stop):
                positions[at] = merged
                deps = ()
                if ndeps[at]:
                    deps = [
                        merged - positions[at - distance]
                        for distance in pool[offsets[at] : offsets[at + 1]]
                        if at - distance >= 0
                    ]
                add(kinds[at], addresses[at], sizes[at], deps)
                merged += 1
            cursors[index] = stop
        if not emitted:
            break
    return writer.finish(
        name or "+".join(trace.name for trace in traces), "mix", traces[0].layout
    )
