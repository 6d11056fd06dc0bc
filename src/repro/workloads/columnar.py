"""Columnar (structure-of-arrays) view of a trace: the simulator's fast path.

:class:`ColumnarTrace` holds the same instruction stream as
:class:`~repro.workloads.trace.MemoryTrace`, but as parallel per-field
columns instead of a list of :class:`~repro.cpu.instruction.Instruction`
objects:

* ``kinds`` / ``ndeps`` — one byte per record (``bytes``), lifted straight
  off the ``.rtrc`` record section with strided slices (one C-level pass per
  column, no per-record Python work);
* ``sizes`` / ``addresses`` — packed ``array('H')`` / ``array('Q')``,
  gathered from the interleaved records by byte-lane slicing (one pass per
  byte lane, eight C calls for the whole address column);
* ``deps_pool`` — the trailing u32 dependency pool as a **zero-copy**
  ``memoryview.cast("I")`` over the original buffer (little-endian hosts;
  big-endian hosts fall back to one byteswapped ``array``).

Decoding from ``.rtrc`` bytes therefore costs a fixed number of bulk byte
operations instead of one ``struct`` tuple plus one ``Instruction.__init__``
per record — that is what campaign pool workers pay on their first cell, and
what ``repro bench``'s ``trace_columnar_decode`` scenario measures.

Batched interpretation
----------------------
The pipeline consumes the columns in bulk rather than record-at-a-time:

* :meth:`ColumnarTrace.precompute_decompositions` warms the address-layout
  memo over the *distinct* address set (one ``set()`` construction plus one
  ``decompose`` per distinct address — not one per access);
* :meth:`ColumnarTrace.pipeline_arrays` classifies access kinds and resolves
  dependency distances to absolute producer seqs with column passes
  (``bytes`` scans, ``array.tolist``, a regex run-finder over the non-zero
  ``ndeps`` bytes) and is cached per view, shared by every configuration of
  a sweep;
* the pipeline walks sequence numbers as a ``range`` — no per-instruction
  attribute loads at fetch.

This is the simulator's one input type.  :func:`as_columnar` adapts every
other trace input once, at the edge: a
:class:`~repro.workloads.trace.MemoryTrace` through its cached
``columnar()`` view, a plain iterable of Instructions through the same
``.rtrc`` codec.  Stateful per-access work (TLB translation, cache banks)
still happens access-by-access inside the interfaces.

This is the one ``.rtrc`` decoder (:func:`repro.workloads.binfmt.decode_trace`
materializes its result): truncated or oversized bodies, unknown kind codes,
zero dependency distances, zero-size memory accesses and a dependency pool
inconsistent with the per-record ``ndeps`` counts all raise
:class:`~repro.workloads.binfmt.TraceFormatError` with the offending
record/entry in the message.
"""

from __future__ import annotations

import re
import sys
from array import array
from itertools import accumulate
from types import SimpleNamespace
from typing import List, Optional, Tuple

from repro.cpu.instruction import Instruction
from repro.memory.address import DEFAULT_LAYOUT, AddressLayout
from repro.workloads.binfmt import (
    _KINDS_BY_CODE,
    _RECORD,
    TraceFormatError,
    _open_binary,
    encode_trace,
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

    Build one with :meth:`from_rtrc_bytes` (campaign workers, files) or
    :meth:`from_trace` / :meth:`MemoryTrace.columnar()
    <repro.workloads.trace.MemoryTrace.columnar>` (in-process conversion);
    the constructor itself wires pre-validated columns and is not a public
    entry point.
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
        "_instructions",
        "_warmed_layouts",
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
        self._instructions = None
        self._warmed_layouts = None
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
        """Columnar view of a :class:`~repro.workloads.trace.MemoryTrace`.

        Goes through the ``.rtrc`` codec, so the columns are by construction
        exactly what a worker decoding shipped bytes would see (and carry
        the same fingerprint).
        """
        return cls.from_rtrc_bytes(encode_trace(trace))

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

    def __iter__(self):
        return iter(self.instructions())

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

    def dep_offsets(self):
        """Prefix sums of ``ndeps``: record ``i`` owns ``pool[off[i]:off[i+1]]``."""
        offsets = self._dep_offsets
        if offsets is None:
            offsets = array("I", [0])
            offsets.extend(accumulate(self.ndeps))
            self._dep_offsets = offsets
        return offsets

    def head(self, count: int) -> "ColumnarTrace":
        """A new columnar view of the first ``count`` records."""
        count = min(count, len(self))
        deps_cut = self.dep_offsets()[count]
        return ColumnarTrace(
            name=self.name,
            suite=self.suite,
            layout=self.layout,
            kinds=self.kinds[:count],
            ndeps=self.ndeps[:count],
            sizes=self.sizes[:count],
            addresses=self.addresses[:count],
            deps_pool=self.deps_pool[:deps_cut],
            record_bytes=self._record_bytes[: count * _RECORD_SIZE],
            deps_bytes=self._deps_bytes[: deps_cut * 4],
        )

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
        """Warm ``layout``'s decomposition memo over the distinct address set.

        ``layout`` defaults to the trace's own.  The simulator calls this
        before a run so no interface ever decomposes a trace address again:
        one ``set()`` pass over the address column, one ``decompose`` per
        *distinct* address (the memo is keyed per layout instance, so the
        warm is idempotent and shared across a sweep's configurations).
        Returns the number of memory references.
        """
        target = layout if layout is not None else self.layout
        warmed = self._warmed_layouts
        if warmed is None:
            warmed = self._warmed_layouts = {}
        marker = id(target)
        previous = warmed.get(marker)
        if previous is not None and previous[0] is target:
            return previous[1]
        decompose = target.decompose
        for address in set(self.addresses):
            decompose(address)
        count = len(self.kinds) - self.kinds.count(0)
        warmed[marker] = (target, count)
        return count

    # ------------------------------------------------------------------
    # Materialization / round-trip
    # ------------------------------------------------------------------
    def instructions(self) -> List[Instruction]:
        """The object form of every record, in program order (cached)."""
        cached = self._instructions
        if cached is None:
            kinds_by_code = _KINDS_BY_CODE
            pool = self.deps_pool
            offsets = self.dep_offsets()
            sizes = self.sizes
            addresses = self.addresses
            ndeps = self.ndeps
            cached = []
            append = cached.append
            for seq, code in enumerate(self.kinds):
                count = ndeps[seq]
                base = offsets[seq]
                append(
                    Instruction(
                        kind=kinds_by_code[code],
                        address=addresses[seq] if code else None,
                        size=sizes[seq],
                        deps=tuple(pool[base : base + count]) if count else (),
                        seq=seq,
                    )
                )
            self._instructions = cached
        return cached

    def materialize(self):
        """This trace as a :class:`~repro.workloads.trace.MemoryTrace`."""
        from repro.workloads.trace import MemoryTrace

        return MemoryTrace(
            name=self.name,
            instructions=list(self.instructions()),
            suite=self.suite,
            layout=self.layout,
        )

    def to_bytes(self) -> bytes:
        """Re-encode the view as ``.rtrc`` bytes (round-trips bit-identically)."""
        header = pack_header(
            self.name, self.suite, self.layout, len(self.kinds), len(self._deps_bytes) // 4
        )
        return b"".join((header, self._record_bytes, self._deps_bytes))

    def fingerprint(self) -> str:
        """Content hash — equal to :func:`~repro.workloads.binfmt.trace_fingerprint`."""
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
    tests, ad-hoc lists) goes through the ``.rtrc`` codec like every other
    trace, list positions standing in for sequence numbers.  The caller's
    Instruction objects are only read: their ``seq`` is never written.
    """
    columnar = getattr(trace, "columnar", None)
    if columnar is not None:
        return columnar()
    return ColumnarTrace.from_trace(
        SimpleNamespace(
            name="", suite="", layout=DEFAULT_LAYOUT, instructions=list(trace)
        )
    )
