"""Hand-built instruction traces: a way in for tests and examples.

Every trace the package produces is born as ``.rtrc`` columns
(:class:`~repro.workloads.columnar.ColumnarTrace`).  A :class:`MemoryTrace`
is an ordered list of :class:`~repro.cpu.instruction.Instruction` objects
that a test or an example writes by hand; its :meth:`columnar` view goes
through the same writer as every other trace, and is what the simulator,
the registry and the file writers take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

from repro.cpu.instruction import Instruction
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT


@dataclass
class MemoryTrace:
    """A program-order instruction trace built from Instruction objects."""

    name: str
    instructions: List[Instruction] = field(default_factory=list)
    suite: str = ""
    layout: AddressLayout = DEFAULT_LAYOUT

    def __post_init__(self) -> None:
        for seq, instruction in enumerate(self.instructions):
            instruction.seq = seq

    def append(self, instruction: Instruction) -> None:
        """Append one instruction, assigning its sequence number."""
        instruction.seq = len(self.instructions)
        self.instructions.append(instruction)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append several instructions in order."""
        for instruction in instructions:
            self.append(instruction)

    def columnar(self):
        """The :class:`~repro.workloads.columnar.ColumnarTrace` of this trace.

        Written through the one record writer on every call, so the view
        always holds the trace as it stands: appended instructions, edited
        fields and a new name alike.
        """
        from repro.workloads.columnar import ColumnarTrace

        return ColumnarTrace.from_trace(self)
