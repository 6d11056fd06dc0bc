"""Dynamic instruction representation used by traces and the pipeline.

A trace is a sequence of :class:`Instruction` objects in program order.  Only
three kinds exist: loads, stores and opaque single-cycle compute operations.
Dependencies are expressed as *backward distances* (``deps``): a value of
``k`` means "this instruction consumes the result of the instruction ``k``
positions earlier in the trace".  Distances keep traces relocatable (they can
be sliced or concatenated) and are resolved to absolute sequence numbers when
the trace is lifted into its columnar view
(:meth:`repro.workloads.columnar.ColumnarTrace.pipeline_arrays`).

Trace generation and decoding write columnar records directly
(:class:`repro.workloads.columnar.TraceWriter`) and build no
:class:`Instruction`; the objects serve traces built by hand (tests,
examples), which :meth:`repro.workloads.columnar.ColumnarTrace.from_trace`
lifts into columns.  The class is a hand-rolled ``__slots__`` class (no
per-instance ``__dict__``) and the kind predicates (``is_load`` ...) are
plain attributes computed once at construction.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple


class InstructionKind(enum.Enum):
    """The three instruction classes the memory-side pipeline distinguishes."""

    LOAD = "load"
    STORE = "store"
    COMPUTE = "compute"


class Instruction:
    """One dynamic instruction of a workload trace.

    Attributes
    ----------
    kind:
        Load, store or compute.
    address:
        Virtual address for memory operations; ``None`` for compute.
    size:
        Access width in bytes for memory operations.
    deps:
        Backward distances to producer instructions.  A load whose *address*
        depends on an earlier load (pointer chasing, as in ``mcf``) carries
        that load's distance here; a compute instruction consuming a load
        result lists the load.  Distances that point before the start of the
        trace are ignored at dispatch.
    seq:
        Absolute position in the trace; filled by the trace container.
    is_load / is_store / is_memory:
        Kind predicates, precomputed at construction (hot-path reads).
    """

    __slots__ = ("kind", "address", "size", "deps", "seq", "is_load", "is_store", "is_memory")

    def __init__(
        self,
        kind: InstructionKind,
        address: Optional[int] = None,
        size: int = 4,
        deps: Tuple[int, ...] = (),
        seq: int = -1,
    ) -> None:
        self.kind = kind
        self.address = address
        self.size = size
        self.deps = tuple(deps)
        self.seq = seq
        is_load = kind is InstructionKind.LOAD
        is_store = kind is InstructionKind.STORE
        self.is_load = is_load
        self.is_store = is_store
        self.is_memory = is_load or is_store
        if self.is_memory:
            if address is None:
                raise ValueError(f"{kind.value} instructions need an address")
            if size <= 0:
                raise ValueError("memory accesses need a positive size")
        for distance in self.deps:
            if distance <= 0:
                raise ValueError("dependency distances must be positive (backward)")

    # ------------------------------------------------------------------
    def producers(self) -> Tuple[int, ...]:
        """Absolute sequence numbers of this instruction's producers.

        Only meaningful once ``seq`` has been assigned; negative results
        (producers before the trace start) are dropped.
        """
        if self.seq < 0:
            raise ValueError("instruction sequence number not assigned yet")
        return tuple(self.seq - d for d in self.deps if self.seq - d >= 0)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return (self.kind, self.address, self.size, self.deps, self.seq) == (
            other.kind,
            other.address,
            other.size,
            other.deps,
            other.seq,
        )

    __hash__ = None  # type: ignore[assignment]  # mutable, like the dataclass it replaced

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        address = f"{self.address:#x}" if self.address is not None else "None"
        return (
            f"Instruction(kind={self.kind!r}, address={address}, size={self.size}, "
            f"deps={self.deps!r}, seq={self.seq})"
        )


def load(address: int, size: int = 4, deps: Tuple[int, ...] = ()) -> Instruction:
    """Convenience constructor for a load instruction."""
    return Instruction(kind=InstructionKind.LOAD, address=address, size=size, deps=deps)


def store(address: int, size: int = 4, deps: Tuple[int, ...] = ()) -> Instruction:
    """Convenience constructor for a store instruction."""
    return Instruction(kind=InstructionKind.STORE, address=address, size=size, deps=deps)


def compute(deps: Tuple[int, ...] = ()) -> Instruction:
    """Convenience constructor for a compute instruction."""
    return Instruction(kind=InstructionKind.COMPUTE, deps=deps)
