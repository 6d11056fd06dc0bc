"""Instruction trace container with memory-behaviour statistics.

A :class:`MemoryTrace` is an ordered list of
:class:`~repro.cpu.instruction.Instruction` objects plus a few derived
statistics used by the motivation analysis (Sec. III) and by the tests that
validate the synthetic generators against the paper's reported workload
characteristics.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Union

from repro.cpu.instruction import Instruction, InstructionKind
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT


def _open_text(path: Union[str, Path], mode: str) -> IO[str]:
    """Open ``path`` as text, transparently gzipped for ``.gz`` names."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t")
    return open(path, mode)


@dataclass
class MemoryTrace:
    """A program-order instruction trace for one benchmark phase."""

    name: str
    instructions: List[Instruction] = field(default_factory=list)
    suite: str = ""
    layout: AddressLayout = DEFAULT_LAYOUT

    def __post_init__(self) -> None:
        for seq, instruction in enumerate(self.instructions):
            instruction.seq = seq

    # ------------------------------------------------------------------
    # Basic container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    def append(self, instruction: Instruction) -> None:
        """Append one instruction, assigning its sequence number."""
        instruction.seq = len(self.instructions)
        self.instructions.append(instruction)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append several instructions in order."""
        for instruction in instructions:
            self.append(instruction)

    def head(self, count: int) -> "MemoryTrace":
        """A new trace containing the first ``count`` instructions."""
        sliced = [
            Instruction(kind=i.kind, address=i.address, size=i.size, deps=i.deps)
            for i in self.instructions[:count]
        ]
        return MemoryTrace(name=self.name, instructions=sliced, suite=self.suite, layout=self.layout)

    # ------------------------------------------------------------------
    # Columnar view (simulator fast path)
    # ------------------------------------------------------------------
    def columnar(self):
        """The structure-of-arrays view of this trace, built once and cached.

        :class:`~repro.workloads.columnar.ColumnarTrace` carries the same
        instruction stream as parallel columns; the simulator converts
        through this accessor, so a campaign running one trace through many
        configurations pays the conversion exactly once.  Invalidated when
        the trace grows.
        """
        cached = getattr(self, "_columnar", None)
        if cached is not None and cached[0] == len(self.instructions):
            return cached[1]
        from repro.workloads.columnar import ColumnarTrace

        view = ColumnarTrace.from_trace(self)
        self._columnar = (len(self.instructions), view)
        return view

    # ------------------------------------------------------------------
    # Compact binary form (campaign worker shipping)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize the trace to compact ``.rtrc`` bytes.

        The campaign executor pre-generates every benchmark trace once in
        the parent and ships these bytes to pool workers (instead of every
        worker regenerating the trace from the profile).  The payload is the
        ``.rtrc`` binary format (:mod:`repro.workloads.binfmt`): fixed-width
        little-endian records that workers lift straight into columns — the
        same bytes ``repro ingest`` writes to disk, so the worker path and
        the trace store share a single codec.
        """
        from repro.workloads.binfmt import encode_trace

        return encode_trace(self)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "MemoryTrace":
        """Rebuild a trace serialized by :meth:`to_bytes` (``.rtrc`` bytes)."""
        from repro.workloads.binfmt import decode_trace

        return decode_trace(payload)

    def fingerprint(self) -> str:
        """Content hash of the instruction stream and layout (hex sha256).

        The hash campaign cells embed to reference ingested traces; see
        :func:`repro.workloads.binfmt.trace_fingerprint`.
        """
        from repro.workloads.binfmt import trace_fingerprint

        return trace_fingerprint(self)

    # ------------------------------------------------------------------
    # On-disk JSONL format (worker/user trace caching)
    # ------------------------------------------------------------------
    def to_jsonl(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON lines; ``.gz`` paths are gzip-compressed.

        The first line is a header object carrying the trace metadata (name,
        suite, address layout); every following line is one instruction.
        Memory-less fields are omitted per line, so compute instructions
        serialize to a few bytes.  Campaign workers and users can cache
        generated traces with this instead of regenerating them per process.
        """
        with _open_text(path, "w") as handle:
            header = {
                "name": self.name,
                "suite": self.suite,
                "layout": {
                    "address_bits": self.layout.address_bits,
                    "page_bytes": self.layout.page_bytes,
                    "line_bytes": self.layout.line_bytes,
                    "l1_capacity_bytes": self.layout.l1_capacity_bytes,
                    "l1_associativity": self.layout.l1_associativity,
                    "l1_banks": self.layout.l1_banks,
                    "subblock_bytes": self.layout.subblock_bytes,
                },
            }
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for instruction in self.instructions:
                record = {"k": instruction.kind.value}
                if instruction.address is not None:
                    record["a"] = instruction.address
                    record["s"] = instruction.size
                if instruction.deps:
                    record["d"] = list(instruction.deps)
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "MemoryTrace":
        """Load a trace written by :meth:`to_jsonl` (gzip-aware)."""
        with _open_text(path, "r") as handle:
            header_line = handle.readline()
            if not header_line.strip():
                raise ValueError(f"{path}: empty trace file")
            header = json.loads(header_line)
            instructions = []
            for line in handle:
                if not line.strip():
                    continue
                record = json.loads(line)
                instructions.append(
                    Instruction(
                        kind=InstructionKind(record["k"]),
                        address=record.get("a"),
                        size=record.get("s", 4),
                        deps=tuple(record.get("d", ())),
                    )
                )
        return cls(
            name=header["name"],
            instructions=instructions,
            suite=header.get("suite", ""),
            layout=AddressLayout(**header["layout"]),
        )

    # ------------------------------------------------------------------
    # Derived statistics (Sec. III characteristics)
    # ------------------------------------------------------------------
    @property
    def loads(self) -> List[Instruction]:
        """All load instructions, in program order."""
        return [i for i in self.instructions if i.is_load]

    @property
    def stores(self) -> List[Instruction]:
        """All store instructions, in program order."""
        return [i for i in self.instructions if i.is_store]

    @property
    def memory_references(self) -> List[Instruction]:
        """All loads and stores, in program order."""
        return [i for i in self.instructions if i.is_memory]

    @property
    def memory_fraction(self) -> float:
        """Memory references as a fraction of all instructions."""
        if not self.instructions:
            return 0.0
        return len(self.memory_references) / len(self.instructions)

    @property
    def load_store_ratio(self) -> float:
        """Ratio of loads to stores (the paper reports ~2)."""
        stores = len(self.stores)
        return len(self.loads) / stores if stores else float("inf")

    def load_addresses(self) -> List[int]:
        """Addresses of all loads in program order (for locality analysis)."""
        return [i.address for i in self.instructions if i.is_load]

    def memory_addresses(self) -> List[int]:
        """Addresses of all memory references in program order."""
        return [i.address for i in self.instructions if i.is_memory]

    def footprint_pages(self) -> int:
        """Number of distinct pages touched by memory references."""
        return len({self.layout.page_id(a) for a in self.memory_addresses()})

    def footprint_lines(self) -> int:
        """Number of distinct cache lines touched by memory references."""
        return len({self.layout.line_number(a) for a in self.memory_addresses()})

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"{self.name}: {len(self)} instr, "
            f"{len(self.memory_references)} mem refs "
            f"({self.memory_fraction * 100:.1f}%), "
            f"ld/st={self.load_store_ratio:.2f}, "
            f"{self.footprint_pages()} pages"
        )
