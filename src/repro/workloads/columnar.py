"""Columnar (structure-of-arrays) trace: the one form every trace takes.

:class:`ColumnarTrace` holds a trace as parallel per-field columns:

* ``kinds`` / ``ndeps`` — one byte per record (``bytes``), lifted straight
  off the ``.rtrc`` record section with strided slices (one C-level pass per
  column, no per-record Python work);
* ``sizes`` / ``addresses`` — packed ``array('H')`` / ``array('Q')``,
  gathered from the interleaved records by byte-lane slicing (one pass per
  byte lane, eight C calls for the whole address column);
* ``deps_pool`` — the trailing u32 dependency pool as a **zero-copy**
  ``memoryview.cast("I")`` over the original buffer (little-endian hosts;
  big-endian hosts fall back to one byteswapped ``array``).

Every trace is born in this form.  :class:`TraceWriter` is the one
encoder: the synthetic generator, the ingest parsers, the JSONL reader and
the trace transforms append records to it, and :meth:`TraceWriter.finish`
hands the packed ``.rtrc`` bytes to :meth:`ColumnarTrace.from_rtrc_bytes`,
the one decoder.  Decoding costs a fixed number of bulk byte operations,
which is what campaign pool workers pay on their first cell.

Batched interpretation
----------------------
The pipeline consumes the columns in bulk rather than record-at-a-time:

* :meth:`ColumnarTrace.precompute_decompositions` range-checks the whole
  address column against the layout with one ``max()``;
* :meth:`ColumnarTrace.pipeline_arrays` classifies access kinds and resolves
  dependency distances to absolute producer seqs with column passes
  (``bytes`` scans, ``array.tolist``, a regex run-finder over the non-zero
  ``ndeps`` bytes) and is cached per view, shared by every configuration of
  a sweep;
* the pipeline walks sequence numbers as a ``range`` — no per-instruction
  attribute loads at fetch.

This is the simulator's one input type.  :func:`as_columnar` adapts the two
ways in that tests and examples use, once, at the edge: a hand-built
:class:`~repro.workloads.trace.MemoryTrace` through its cached
``columnar()`` view, a plain iterable of Instructions through the same
writer.  Stateful per-access work (TLB translation, cache banks) still
happens access-by-access inside the interfaces.

The writer rejects a field that does not fit its ``.rtrc`` width (or a
non-positive size or dependency distance) as it is appended, so a parser
can name the offending input line.  The decoder validates every payload:
truncated or oversized bodies, unknown kind codes, zero dependency
distances, zero-size memory accesses and a dependency pool inconsistent
with the per-record ``ndeps`` counts all raise
:class:`~repro.workloads.binfmt.TraceFormatError` with the offending
record/entry in the message.
"""

from __future__ import annotations

import re
import struct
import sys
from array import array
from itertools import accumulate
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

from repro.cpu.instruction import InstructionKind
from repro.memory.address import DEFAULT_LAYOUT, AddressLayout
from repro.workloads.binfmt import (
    _RECORD,
    TraceFormatError,
    _open_binary,
    fingerprint_sections,
    pack_header,
    pack_layout,
    read_header,
)

#: bytes per ``.rtrc`` record (kind u8, ndeps u8, size u16, address u64)
_RECORD_SIZE = _RECORD.size

#: kind codes are 0/1/2; anything else in the kinds column is corrupt
_VALID_KINDS = b"\x00\x01\x02"

#: finds runs of records that carry dependencies (non-zero ``ndeps`` bytes)
_DEP_RUNS = re.compile(rb"[^\x00]+")

_ZERO_U32 = b"\x00\x00\x00\x00"

#: record kind names by code (the JSONL ``k`` values)
KIND_NAMES = ("compute", "load", "store")

#: kind code of each Instruction kind (object traces, see ``from_trace``)
_KIND_CODES = {InstructionKind(name): code for code, name in enumerate(KIND_NAMES)}

_pack_record = _RECORD.pack


def _check_columns(kinds: bytes, ndeps: bytes, sizes, deps_bytes, deps_len: int) -> None:
    """Reject corrupt column content with the offending record in the message."""
    invalid = kinds.translate(None, _VALID_KINDS)
    if invalid:
        index = next(i for i, code in enumerate(kinds) if code > 2)
        raise TraceFormatError(
            f"unknown .rtrc instruction kind code {kinds[index]} (record {index})"
        )
    consumed = sum(ndeps)
    if consumed != deps_len:
        raise TraceFormatError(
            f"inconsistent .rtrc dependency pool: records consume {consumed} "
            f"entries, pool holds {deps_len}"
        )
    # A zero dependency distance is corrupt (distances are positive backward
    # offsets).  Scanning for an *aligned* all-zero u32 stays at C speed: a
    # find() hit that is not itself an aligned entry can only overlap one
    # aligned candidate, which is checked and then skipped past.
    pos = deps_bytes.find(_ZERO_U32)
    while pos != -1:
        start = pos + (-pos % 4)
        if start + 4 <= len(deps_bytes) and deps_bytes[start : start + 4] == _ZERO_U32:
            raise TraceFormatError(
                f"corrupt .rtrc dependency pool: entry {start // 4} is zero "
                "(distances are positive backward offsets)"
            )
        pos = deps_bytes.find(_ZERO_U32, max(start, pos + 1))
    if 0 in sizes:
        for index, size in enumerate(sizes):
            if size == 0 and kinds[index] != 0:
                raise TraceFormatError(
                    f"corrupt .rtrc record {index}: "
                    f"{'load' if kinds[index] == 1 else 'store'} with zero size"
                )


def _width_error(kind, address, size, ndeps) -> str:
    """Which field of a record the ``.rtrc`` widths cannot hold."""
    if not 0 <= address <= 0xFFFFFFFFFFFFFFFF:
        return f"address {address} outside the .rtrc range 0..2**64-1"
    if not 0 <= size <= 0xFFFF:
        return f"size {size} outside the .rtrc range 0..65535"
    if ndeps > 0xFF:
        return f"{ndeps} dependencies, more than the .rtrc limit of 255"
    return f"record fields not integers (kind={kind!r}, address={address!r}, size={size!r})"


class TraceWriter:
    """Packs ``.rtrc`` records and the u32 dependency pool: the one encoder.

    :meth:`add` appends one 12-byte record and its backward dependency
    distances, and rejects with
    :class:`~repro.workloads.binfmt.TraceFormatError` any field that does not
    fit: more than 255 distances, a distance outside ``1..2**32-1``, a size
    outside ``0..65535`` (or below 1 for a load or store), an address outside
    ``0..2**64-1``.  The message names the field, not the record, so each
    caller can point at its own input line.  :meth:`finish` hands the packed
    bytes to :meth:`ColumnarTrace.from_rtrc_bytes`, which validates them once
    more as a whole.
    """

    __slots__ = ("records", "deps")

    def __init__(self) -> None:
        self.records = bytearray()
        self.deps = array("I")

    def add(self, kind: int, address: int = 0, size: int = 4, deps: Sequence[int] = ()) -> None:
        """Append one record: kind code 0 compute / 1 load / 2 store.

        Compute records default to size 4 and address 0: stored traces and
        their fingerprints carry those values for them.
        """
        if kind and size < 1:
            raise TraceFormatError(f"{KIND_NAMES[kind]} with non-positive size {size}")
        if deps and (min(deps) < 1 or max(deps) > 0xFFFFFFFF):
            raise TraceFormatError(
                f"dependency distances {tuple(deps)} outside 1..{0xFFFFFFFF}"
            )
        try:
            self.records += _pack_record(kind, len(deps), size, address)
        except struct.error:
            raise TraceFormatError(_width_error(kind, address, size, len(deps))) from None
        if deps:
            self.deps.extend(deps)

    def extend(self, trace: "ColumnarTrace", start: int, stop: int) -> None:
        """Append records ``[start, stop)`` of ``trace``, distances as they are."""
        offsets = trace.dep_offsets()
        self.records += trace._record_bytes[start * _RECORD_SIZE : stop * _RECORD_SIZE]
        self.deps.frombytes(trace.deps_pool[offsets[start] : offsets[stop]].tobytes())

    def finish(
        self, name: str, suite: str = "", layout: AddressLayout = DEFAULT_LAYOUT
    ) -> "ColumnarTrace":
        """The written records as a :class:`ColumnarTrace`."""
        deps = self.deps
        if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere we run
            deps = array("I", deps)
            deps.byteswap()
        header = pack_header(name, suite, layout, len(self.records) // _RECORD_SIZE, len(deps))
        return ColumnarTrace.from_rtrc_bytes(b"".join((header, self.records, deps.tobytes())))


class ColumnarSlice:
    """A contiguous ``[start, stop)`` window of a :class:`ColumnarTrace`.

    What the simulator feeds the pipeline for warm-up/measured portions: it
    carries no copied data — just the parent view plus bounds — and exposes
    the same ``columnar_pipeline_plan`` protocol the pipeline consumes.
    """

    __slots__ = ("trace", "start", "stop")

    def __init__(self, trace: "ColumnarTrace", start: int, stop: int) -> None:
        self.trace = trace
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def columnar_pipeline_plan(self):
        """``(seqs, total, capacity, arrays)`` for the event-driven pipeline."""
        return (
            range(self.start, self.stop),
            self.stop - self.start,
            self.stop,
            self.trace.pipeline_arrays(),
        )


class ColumnarTrace:
    """Structure-of-arrays trace view (see the module docstring).

    Build one with a :class:`TraceWriter`, :meth:`from_rtrc_bytes`
    (campaign workers) or :meth:`load` (files); :meth:`from_trace` adapts a
    hand-built object trace.  The constructor itself wires pre-validated
    columns and is not a public entry point.
    """

    __slots__ = (
        "name",
        "suite",
        "layout",
        "kinds",
        "ndeps",
        "sizes",
        "addresses",
        "deps_pool",
        "_record_bytes",
        "_deps_bytes",
        "_dep_offsets",
        "_pipeline_arrays",
        "_fingerprint",
    )

    def __init__(
        self,
        name: str,
        suite: str,
        layout: AddressLayout,
        kinds: bytes,
        ndeps: bytes,
        sizes,
        addresses,
        deps_pool,
        record_bytes,
        deps_bytes,
    ) -> None:
        self.name = name
        self.suite = suite
        self.layout = layout
        self.kinds = kinds
        self.ndeps = ndeps
        self.sizes = sizes
        self.addresses = addresses
        self.deps_pool = deps_pool
        self._record_bytes = record_bytes
        self._deps_bytes = deps_bytes
        self._dep_offsets = None
        self._pipeline_arrays = None
        self._fingerprint = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rtrc_bytes(cls, data) -> "ColumnarTrace":
        """Decode ``.rtrc`` bytes into columns without building Instructions.

        The column lift is a fixed number of strided byte slices (one per
        byte lane), the dependency pool a zero-copy view; malformed payloads
        raise :class:`~repro.workloads.binfmt.TraceFormatError` (see the
        module docstring).
        """
        if not isinstance(data, bytes):
            data = bytes(data)
        header = read_header(data)
        count = header["instructions"]
        deps_len = header["deps"]
        records_start = header["body_offset"]
        records_end = records_start + count * _RECORD_SIZE
        deps_end = records_end + deps_len * 4
        if len(data) != deps_end:
            raise TraceFormatError(
                f"truncated or oversized .rtrc body: expected {deps_end} bytes "
                f"({count} records + {deps_len} deps), got {len(data)}"
            )
        view = memoryview(data)
        # Single-byte columns: one strided slice each.
        kinds = bytes(view[records_start + 0 : records_end : _RECORD_SIZE])
        ndeps = bytes(view[records_start + 1 : records_end : _RECORD_SIZE])
        # Multi-byte columns: gather each byte lane, then reinterpret packed.
        size_lanes = bytearray(2 * count)
        size_lanes[0::2] = view[records_start + 2 : records_end : _RECORD_SIZE]
        size_lanes[1::2] = view[records_start + 3 : records_end : _RECORD_SIZE]
        sizes = array("H")
        sizes.frombytes(size_lanes)
        address_lanes = bytearray(8 * count)
        for lane in range(8):
            address_lanes[lane::8] = view[
                records_start + 4 + lane : records_end : _RECORD_SIZE
            ]
        addresses = array("Q")
        addresses.frombytes(address_lanes)
        deps_bytes = view[records_end:deps_end]
        if sys.byteorder == "little":
            deps_pool = deps_bytes.cast("I")
        else:  # pragma: no cover - LE hosts everywhere we run
            sizes.byteswap()
            addresses.byteswap()
            deps_pool = array("I")
            deps_pool.frombytes(deps_bytes)
            deps_pool.byteswap()
        _check_columns(kinds, ndeps, sizes, bytes(deps_bytes), deps_len)
        return cls(
            name=header["name"],
            suite=header["suite"],
            layout=AddressLayout(**header["layout"]),
            kinds=kinds,
            ndeps=ndeps,
            sizes=sizes,
            addresses=addresses,
            deps_pool=deps_pool,
            record_bytes=view[records_start:records_end],
            deps_bytes=deps_bytes,
        )

    @classmethod
    def from_trace(cls, trace) -> "ColumnarTrace":
        """The columnar form of an object trace, written record by record.

        ``trace`` carries ``name``, ``suite``, ``layout`` and a list of
        :class:`~repro.cpu.instruction.Instruction` objects, whose list
        positions stand in for sequence numbers; the objects are only read.
        """
        writer = TraceWriter()
        for seq, instruction in enumerate(trace.instructions):
            try:
                writer.add(
                    _KIND_CODES[instruction.kind],
                    instruction.address or 0,
                    instruction.size,
                    instruction.deps,
                )
            except TraceFormatError as error:
                raise TraceFormatError(f"instruction {seq} of {trace.name!r}: {error}") from None
        return writer.finish(trace.name, trace.suite, trace.layout)

    @classmethod
    def load(cls, path) -> "ColumnarTrace":
        """Read an ``.rtrc`` file straight into columns (gzip-aware)."""
        with _open_binary(path, "r") as handle:
            data = handle.read()
        try:
            return cls.from_rtrc_bytes(data)
        except TraceFormatError as error:
            raise TraceFormatError(f"{path}: {error}") from None

    # ------------------------------------------------------------------
    # Container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.kinds)

    def columnar(self) -> "ColumnarTrace":
        """This view (protocol shared with ``MemoryTrace.columnar()``)."""
        return self

    @property
    def load_count(self) -> int:
        """Number of load records."""
        return self.kinds.count(1)

    @property
    def store_count(self) -> int:
        """Number of store records."""
        return self.kinds.count(2)

    def load_addresses(self) -> List[int]:
        """Addresses of all loads in program order (for locality analysis)."""
        return [address for kind, address in zip(self.kinds, self.addresses) if kind == 1]

    def summary(self) -> str:
        """One line: length, memory references, load/store ratio, pages."""
        total = len(self.kinds)
        loads, stores = self.load_count, self.store_count
        memory = loads + stores
        page_id = self.layout.page_id
        pages = {page_id(address) for kind, address in zip(self.kinds, self.addresses) if kind}
        return (
            f"{self.name}: {total} instr, {memory} mem refs "
            f"({(memory / total if total else 0.0) * 100:.1f}%), "
            f"ld/st={loads / stores if stores else float('inf'):.2f}, "
            f"{len(pages)} pages"
        )

    def dep_offsets(self):
        """Prefix sums of ``ndeps``: record ``i`` owns ``pool[off[i]:off[i+1]]``."""
        offsets = self._dep_offsets
        if offsets is None:
            offsets = array("I", [0])
            offsets.extend(accumulate(self.ndeps))
            self._dep_offsets = offsets
        return offsets

    def run_slice(self, start: int, stop: int) -> ColumnarSlice:
        """The ``[start, stop)`` pipeline window (warm-up / measured split)."""
        return ColumnarSlice(self, start, stop)

    # ------------------------------------------------------------------
    # Pipeline protocol
    # ------------------------------------------------------------------
    def columnar_pipeline_plan(self):
        """``(seqs, total, capacity, arrays)`` covering the whole trace."""
        total = len(self.kinds)
        return range(total), total, total, self.pipeline_arrays()

    def pipeline_arrays(self):
        """Seq-indexed ``(kinds, addresses, sizes, producers)``; cached.

        Built with column passes: the kinds column is reused as-is (``.rtrc``
        kind codes *are* the pipeline's 0/1/2 encoding), sizes/addresses
        become plain lists in one ``tolist`` call each, and producer tuples
        are resolved only for the records a C-level run-scan over the
        ``ndeps`` bytes says carry dependencies.
        """
        arrays = self._pipeline_arrays
        if arrays is None:
            producers: List[Tuple[int, ...]] = [()] * len(self.kinds)
            ndeps = self.ndeps
            if self._deps_bytes:
                pool = self.deps_pool
                offsets = self.dep_offsets()
                for match in _DEP_RUNS.finditer(ndeps):
                    for seq in range(match.start(), match.end()):
                        base = offsets[seq]
                        producers[seq] = tuple(
                            seq - d
                            for d in pool[base : base + ndeps[seq]]
                            if d <= seq
                        )
            arrays = self._pipeline_arrays = (
                self.kinds,
                self.addresses.tolist(),
                self.sizes.tolist(),
                producers,
            )
        return arrays

    def precompute_decompositions(self, layout: Optional[AddressLayout] = None) -> int:
        """Range-check the address column against ``layout`` (default: the
        trace's own) and return the number of memory references.

        One ``max()`` over the column: an address past ``max_address``
        raises :meth:`AddressLayout.check`'s ``ValueError``, so
        :meth:`repro.sim.simulator.Simulator.run` rejects such a trace before
        it simulates (the column is unsigned, so no address is negative).
        The name dates from when this call warmed a per-layout memo of
        address decompositions; it stays because the perfbench tracer
        (``perfbench/tracer.py``) times the call by name.
        """
        target = layout if layout is not None else self.layout
        target.check(max(self.addresses, default=0))
        return len(self.kinds) - self.kinds.count(0)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The trace as ``.rtrc`` bytes: a fresh header, then the buffers it holds.

        Round-trips :meth:`from_rtrc_bytes` bit-identically.  The header is
        packed from the current ``name`` and ``suite``, so a renamed trace
        writes its new name.
        """
        header = pack_header(
            self.name, self.suite, self.layout, len(self.kinds), len(self._deps_bytes) // 4
        )
        return b"".join((header, self._record_bytes, self._deps_bytes))

    def fingerprint(self) -> str:
        """Content hash (sha256 hex) of the records, dependency pool and layout.

        Campaign cells embed it to reference ingested traces.  The name and
        suite do not take part, so the same records registered under another
        name dedupe to the same stored results.
        """
        cached = self._fingerprint
        if cached is None:
            cached = self._fingerprint = fingerprint_sections(
                pack_layout(self.layout), self._record_bytes, self._deps_bytes
            )
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ColumnarTrace(name={self.name!r}, instructions={len(self)}, "
            f"loads={self.load_count}, stores={self.store_count})"
        )


def as_columnar(trace) -> ColumnarTrace:
    """The columnar view of any trace input, adapted once at the edge.

    Views and :class:`~repro.workloads.trace.MemoryTrace` expose a cached
    ``columnar()``.  Any other iterable of Instructions (stub-interface unit
    tests, ad-hoc lists) goes through the writer like every other trace,
    list positions standing in for sequence numbers.  The caller's
    Instruction objects are only read: their ``seq`` is never written.
    """
    columnar = getattr(trace, "columnar", None)
    if columnar is not None:
        return columnar()
    return ColumnarTrace.from_trace(
        SimpleNamespace(name="", suite="", layout=DEFAULT_LAYOUT, instructions=list(trace))
    )
