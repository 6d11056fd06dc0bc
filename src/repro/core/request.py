"""Memory access requests flowing through the L1 interface models.

A :class:`MemoryAccessRequest` wraps one dynamic memory operation (a load or
a merge-buffer entry being written back) on its way from address computation
to the cache.  It carries the virtual address produced by the
address-computation units, its page, line and bank, and the physical address
once translation has happened.  The way hint the Arbitration Unit attaches
lives on the :class:`~repro.core.arbitration.BankRequest` that services it.

Interface models create requests from pipeline instructions; the ``tag``
field carries an opaque reference back to whatever issued the request: in
full simulations the load's seq (its instruction's index in the trace), and
``None`` for a merge-buffer entry.  The generic pipeline loop builds one
request per MALEC load; the specialized kernels
(:mod:`repro.sim.kernels`) carry MALEC loads as bare seqs and meet requests
only as the MBEs ``MalecInterface._feed_mbe_slot`` builds.

One request is allocated per in-flight memory operation, so the class uses
``__slots__`` and resolves its address decomposition exactly once at
construction through the layout's memoised :meth:`~repro.memory.address.AddressLayout.decompose`
— the grouping and arbitration logic then reads plain attributes instead of
re-slicing the address per comparison.  Requests carry no identifier: the
Input Buffer retires them by object identity.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT


class AccessKind(enum.Enum):
    """Type of memory access serviced by the L1 interface."""

    LOAD = "load"
    #: A merge-buffer entry evicted towards the cache (a committed store
    #: group); never time critical (Sec. IV).
    MBE = "mbe"


class MemoryAccessRequest:
    """One in-flight memory access.

    Attributes
    ----------
    kind:
        Load or merge-buffer eviction.
    virtual_address:
        Address produced by address computation.
    size:
        Access width in bytes (the store-to-load forwarding search uses it).
    tag:
        Opaque reference back to the issuing instruction.
    physical_address:
        Filled in once the translation for the request's page is available.
    virtual_page / line_in_page / bank_index:
        Cached fields of the virtual address, decomposed once at construction.
    """

    __slots__ = (
        "kind",
        "virtual_address",
        "size",
        "tag",
        "layout",
        "physical_address",
        "is_load",
        "is_mbe",
        "virtual_page",
        "line_in_page",
        "bank_index",
        "_line_number",
        "_subblock_pair",
    )

    def __init__(
        self,
        kind: AccessKind,
        virtual_address: int,
        size: int = 4,
        tag: Any = None,
        layout: AddressLayout = DEFAULT_LAYOUT,
    ) -> None:
        self.kind = kind
        self.virtual_address = virtual_address
        self.size = size
        self.tag = tag
        self.layout = layout
        self.physical_address: Optional[int] = None
        self.is_load = kind is AccessKind.LOAD
        self.is_mbe = kind is AccessKind.MBE
        # Decompose the virtual address exactly once (memoised per layout);
        # the Input Buffer and Arbitration Unit compare these plain fields.
        parts = layout.decompose(virtual_address)
        self.virtual_page = parts.page_id
        self.line_in_page = parts.line_in_page
        self.bank_index = parts.bank_index
        self._line_number = parts.line_number
        self._subblock_pair = parts.subblock_in_line >> 1

    # ------------------------------------------------------------------
    # Convenience accessors used by the grouping / arbitration logic
    # ------------------------------------------------------------------
    def attach_translation(self, physical_page: int) -> None:
        """Fill in the physical address from a translated page id.

        Inline of :meth:`AddressLayout.compose` without the range checks —
        the page id comes from the TLB/page table and the offset from an
        already-validated virtual address, so both are in range.
        """
        layout = self.layout
        self.physical_address = (physical_page << layout.page_offset_bits) | (
            self.virtual_address & layout._page_offset_mask
        )

    def same_line_as(self, other: "MemoryAccessRequest") -> bool:
        """True when both requests touch the same cache line."""
        return self._line_number == other._line_number

    def same_subblock_pair_as(self, other: "MemoryAccessRequest") -> bool:
        """True when both requests fall in the same aligned sub-block pair."""
        return (
            self._line_number == other._line_number
            and self._subblock_pair == other._subblock_pair
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"MemoryAccessRequest({self.kind.value}, va={self.virtual_address:#x})"
