"""Compact binary trace format (``.rtrc``): the on-disk/wire form of a trace.

The JSONL trace format (:meth:`~repro.workloads.trace.MemoryTrace.to_jsonl`)
is human-inspectable but costs one ``json.loads`` per instruction to read —
that parse dominates campaign/DSE worker start-up once traces stop being
regenerated in every process.  ``.rtrc`` is the fast path: a little-endian
binary encoding with fixed-width per-instruction records that decodes into
columns with a fixed number of strided byte slices
(:meth:`~repro.workloads.columnar.ColumnarTrace.from_rtrc_bytes`, the one
decoder) and round-trips bit-identically against the JSONL form.

Layout (all integers little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       4     magic ``b"RTRC"``
    4       2     format version (currently 1)
    6       2     flags (reserved, must be 0)
    8       2     name length in bytes (UTF-8)
    10      2     suite length in bytes (UTF-8)
    12      8     instruction count
    20      8     dependency-pool length (number of u32 entries)
    28      28    address layout: 7 x u32 (address_bits, page_bytes,
                  line_bytes, l1_capacity_bytes, l1_associativity,
                  l1_banks, subblock_bytes)
    56      -     name bytes, then suite bytes
    ...     12*n  records: kind u8 (0 compute / 1 load / 2 store),
                  ndeps u8, size u16, address u64
    ...     4*d   dependency pool: u32 backward distances, record order

Records are fixed-width; variable-length dependency lists live in a single
trailing pool, consumed in record order (``ndeps`` entries per record).
Paths ending in ``.gz`` are transparently gzip-(de)compressed.

:func:`trace_fingerprint` derives the content hash campaign cells use to
reference ingested traces: it covers the format version, the address layout
and every instruction record — but *not* the display name or suite, so
re-registering the same instruction stream under another name dedupes to the
same stored results.
"""

from __future__ import annotations

import gzip
import hashlib
import struct
import sys
from array import array
from pathlib import Path
from typing import Tuple, Union

from repro.cpu.instruction import InstructionKind
from repro.memory.address import AddressLayout

#: file magic of every ``.rtrc`` payload
RTRC_MAGIC = b"RTRC"

#: current format version
RTRC_VERSION = 1

_PRELUDE = struct.Struct("<4sHHHHQQ7I")
_RECORD = struct.Struct("<BBHQ")

#: order of the :class:`AddressLayout` fields inside the prelude
_LAYOUT_FIELDS = (
    "address_bits",
    "page_bytes",
    "line_bytes",
    "l1_capacity_bytes",
    "l1_associativity",
    "l1_banks",
    "subblock_bytes",
)

_KIND_CODES = {
    InstructionKind.COMPUTE: 0,
    InstructionKind.LOAD: 1,
    InstructionKind.STORE: 2,
}
_KINDS_BY_CODE = {code: kind for kind, code in _KIND_CODES.items()}


class TraceFormatError(ValueError):
    """A malformed, truncated or unsupported ``.rtrc`` payload."""


def _open_binary(path: Union[str, Path], mode: str):
    """Open ``path`` in binary mode, transparently gzipped for ``.gz`` names."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "b")
    return open(path, mode + "b")


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def pack_layout(layout: AddressLayout) -> bytes:
    """The address layout as the prelude stores it (7 x u32)."""
    return struct.pack("<7I", *(getattr(layout, name) for name in _LAYOUT_FIELDS))


def pack_header(name: str, suite: str, layout: AddressLayout, count: int, deps: int) -> bytes:
    """The prelude plus name and suite bytes: everything before the records.

    ``count`` is the number of records and ``deps`` the dependency-pool
    length in u32 entries.  The one header writer, shared by
    :func:`encode_trace` and ``ColumnarTrace.to_bytes``; :func:`read_header`
    is its inverse.
    """
    name_bytes = name.encode("utf-8")
    suite_bytes = suite.encode("utf-8")
    if len(name_bytes) > 0xFFFF or len(suite_bytes) > 0xFFFF:
        raise TraceFormatError("trace name/suite longer than 65535 UTF-8 bytes")
    prelude = _PRELUDE.pack(
        RTRC_MAGIC,
        RTRC_VERSION,
        0,
        len(name_bytes),
        len(suite_bytes),
        count,
        deps,
        *(getattr(layout, field) for field in _LAYOUT_FIELDS),
    )
    return prelude + name_bytes + suite_bytes


def _encode_body(trace) -> Tuple[bytes, bytes]:
    """The (records, deps-pool) byte sections of ``trace``.

    Shared by :func:`encode_trace` and :func:`trace_fingerprint`, so the
    content hash is by construction a hash of exactly what gets written.
    """
    pack = _RECORD.pack
    records = bytearray()
    deps_pool = array("I")
    for instruction in trace.instructions:
        deps = instruction.deps
        ndeps = len(deps)
        size = instruction.size
        address = instruction.address or 0
        if ndeps > 0xFF or size > 0xFFFF or address > 0xFFFFFFFFFFFFFFFF:
            raise TraceFormatError(
                f"instruction {instruction.seq} of {trace.name!r} does not fit "
                f".rtrc field widths (ndeps={ndeps}, size={size}, address={address:#x})"
            )
        records += pack(_KIND_CODES[instruction.kind], ndeps, size, address)
        if deps:
            if max(deps) > 0xFFFFFFFF:
                raise TraceFormatError(
                    f"instruction {instruction.seq} of {trace.name!r} has a "
                    "dependency distance beyond 32 bits"
                )
            deps_pool.extend(deps)
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere we run
        deps_pool.byteswap()
    return bytes(records), deps_pool.tobytes()


def encode_trace(trace) -> bytes:
    """Serialize ``trace`` to ``.rtrc`` bytes (see the module docstring)."""
    records, deps_bytes = _encode_body(trace)
    header = pack_header(
        trace.name, trace.suite, trace.layout, len(trace.instructions), len(deps_bytes) // 4
    )
    return b"".join((header, records, deps_bytes))


def fingerprint_sections(layout_bytes, records, deps_bytes) -> str:
    """The trace content hash, from its raw ``.rtrc`` byte sections.

    The single definition of the digest recipe: :func:`trace_fingerprint`
    feeds it the sections of an encoded :class:`MemoryTrace`, and the
    columnar view (:mod:`repro.workloads.columnar`) feeds it the very slices
    of the buffer it decoded from — so both views of the same bytes hash
    identically by construction.
    """
    digest = hashlib.sha256()
    digest.update(b"rtrc\x01")
    digest.update(layout_bytes)
    digest.update(records)
    digest.update(deps_bytes)
    return digest.hexdigest()


def trace_fingerprint(trace) -> str:
    """Content hash (sha256 hex) of a trace's instruction stream and layout.

    Stable across processes and re-encodes; independent of the display name
    and suite, so the same ingested file registered twice — even under
    different names — maps to the same hash.
    """
    records, deps_bytes = _encode_body(trace)
    return fingerprint_sections(pack_layout(trace.layout), records, deps_bytes)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def read_header(data: bytes) -> dict:
    """Parse and validate the prelude of an ``.rtrc`` payload.

    Returns a dictionary with ``version``, ``name``, ``suite``,
    ``instructions`` (record count), ``deps`` (pool length) and ``layout``
    (field dict) — without touching the record section, so inspecting a huge
    trace costs a header read.
    """
    if len(data) < _PRELUDE.size:
        raise TraceFormatError(
            f"truncated .rtrc header: need {_PRELUDE.size} bytes, got {len(data)}"
        )
    (magic, version, flags, name_len, suite_len, count, deps_len, *layout_values) = (
        _PRELUDE.unpack_from(data)
    )
    if magic != RTRC_MAGIC:
        raise TraceFormatError(f"not an .rtrc trace (bad magic {magic!r})")
    if version != RTRC_VERSION:
        raise TraceFormatError(
            f"unsupported .rtrc version {version} (this build reads version {RTRC_VERSION})"
        )
    if flags != 0:
        raise TraceFormatError(f"unsupported .rtrc flags {flags:#06x}")
    strings_end = _PRELUDE.size + name_len + suite_len
    if len(data) < strings_end:
        raise TraceFormatError("truncated .rtrc header: name/suite cut short")
    name = data[_PRELUDE.size : _PRELUDE.size + name_len].decode("utf-8")
    suite = data[_PRELUDE.size + name_len : strings_end].decode("utf-8")
    return {
        "version": version,
        "name": name,
        "suite": suite,
        "instructions": count,
        "deps": deps_len,
        "layout": dict(zip(_LAYOUT_FIELDS, layout_values)),
        "body_offset": strings_end,
    }


def decode_trace(data: bytes):
    """Rebuild a :class:`~repro.workloads.trace.MemoryTrace` from ``.rtrc`` bytes.

    The columnar decoder does the work, so a malformed payload raises the
    same :class:`TraceFormatError` (naming the offending record) either way.
    """
    from repro.workloads.columnar import ColumnarTrace

    return ColumnarTrace.from_rtrc_bytes(data).materialize()


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def dump_rtrc(trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` as an ``.rtrc`` file (``.gz`` paths are compressed)."""
    path = Path(path)
    payload = encode_trace(trace)
    with _open_binary(path, "w") as handle:
        handle.write(payload)
    return path


def load_rtrc(path: Union[str, Path]):
    """Read an ``.rtrc`` file written by :func:`dump_rtrc` (gzip-aware)."""
    with _open_binary(path, "r") as handle:
        data = handle.read()
    try:
        return decode_trace(data)
    except TraceFormatError as error:
        raise TraceFormatError(f"{path}: {error}") from None
