"""Compact binary trace format (``.rtrc``): the on-disk/wire form of a trace.

Every trace is held as ``.rtrc`` columns
(:class:`~repro.workloads.columnar.ColumnarTrace`): the one writer
(:class:`~repro.workloads.columnar.TraceWriter`) packs the records below and
the one decoder
(:meth:`~repro.workloads.columnar.ColumnarTrace.from_rtrc_bytes`) lifts them
into columns with a fixed number of strided byte slices.  The JSONL trace
format (:func:`~repro.workloads.ingest.dump_jsonl`) is human-inspectable but
costs one ``json.loads`` per instruction to read, and round-trips
bit-identically against ``.rtrc``.  This module holds the format's
constants, its header codec, the content hash and the file writer.

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

:func:`fingerprint_sections` derives the content hash campaign cells use to
reference ingested traces: it covers the format version, the address layout
and every instruction record — but *not* the display name or suite, so
re-registering the same instruction stream under another name dedupes to the
same stored results.
"""

from __future__ import annotations

import gzip
import hashlib
import struct
from pathlib import Path
from typing import Union

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
    ``TraceWriter.finish`` and ``ColumnarTrace.to_bytes``;
    :func:`read_header` is its inverse.
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


def fingerprint_sections(layout_bytes, records, deps_bytes) -> str:
    """The trace content hash, from its raw ``.rtrc`` byte sections.

    The single definition of the digest recipe:
    ``ColumnarTrace.fingerprint`` feeds it the very slices of the buffer it
    decoded from.  Stable across processes and re-encodes; independent of the
    display name and suite, so the same ingested file registered twice — even
    under different names — maps to the same hash.
    """
    digest = hashlib.sha256()
    digest.update(b"rtrc\x01")
    digest.update(layout_bytes)
    digest.update(records)
    digest.update(deps_bytes)
    return digest.hexdigest()


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


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def dump_rtrc(trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` as an ``.rtrc`` file (``.gz`` paths are compressed).

    ``trace`` is a :class:`~repro.workloads.columnar.ColumnarTrace`, or
    anything else with a ``columnar()`` view.
    """
    path = Path(path)
    payload = trace.columnar().to_bytes()
    with _open_binary(path, "w") as handle:
        handle.write(payload)
    return path
