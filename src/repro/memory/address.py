"""Address-space geometry shared by every component of the MALEC model.

The paper (Table II) assumes a 32-bit address space, 4 KByte pages, a 32 KByte
4-way set-associative L1 data cache with 64-byte lines split across four
independent banks, and 128-bit sub-blocks inside each line.  Every structure
in the reproduction (TLBs, way tables, cache banks, store/merge buffers,
arbitration logic) slices addresses into the same fields, so the geometry is
centralised here in :class:`AddressLayout`.

Address fields (for the default layout)::

    31                      12 11          6 5      4 3        0
    +-------------------------+-------------+--------+---------+
    |        page id (20)     | line-in-page | sub-   | byte in |
    |                         |     (6)      | block  | sub-blk |
    +-------------------------+-------------+--------+---------+
                              |<------- page offset (12) ------>|

The cache sees the same address as ``tag | set | bank | line offset``; the
bank is selected by the low bits of the line address so that consecutive
lines map to different banks (the interleaving the paper relies on to service
several loads per cycle).

Because the field extractors sit on the simulator's innermost loops, every
derived width, shift and mask is computed *once* at construction time and
stored as a plain attribute (the layout is frozen, so they can never go
stale).  A caller takes the one field it needs: an extractor method, which
range-checks the address, or the precomputed shift and mask after a check
of its own.
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_power_of_two(value: int) -> bool:
    """Return ``True`` if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def _log2(value: int) -> int:
    """Exact integer log2 of a power of two."""
    if not _is_power_of_two(value):
        raise ValueError(f"{value} is not a power of two")
    return value.bit_length() - 1


@dataclass(frozen=True)
class AddressLayout:
    """Geometry of the simulated address space and L1 data cache.

    Parameters mirror Table II of the paper.  All sizes are in bytes and must
    be powers of two; consistency is validated at construction time.

    Attributes
    ----------
    address_bits:
        Width of virtual and physical addresses (the paper uses 32).
    page_bytes:
        Page size; 4 KByte in the paper.
    line_bytes:
        L1 cache line size; 64 bytes in the paper.
    l1_capacity_bytes:
        Total L1 data capacity; 32 KByte in the paper.
    l1_associativity:
        L1 set associativity; 4 in the paper.
    l1_banks:
        Number of independent single-ported L1 banks; 4 in the paper.
    subblock_bytes:
        Width of a data-array sub-block; 16 bytes (128 bit) in the paper.

    All derived widths (``page_offset_bits``, ``tag_bits``, ...) are plain
    attributes precomputed at construction time.
    """

    address_bits: int = 32
    page_bytes: int = 4096
    line_bytes: int = 64
    l1_capacity_bytes: int = 32 * 1024
    l1_associativity: int = 4
    l1_banks: int = 4
    subblock_bytes: int = 16

    def __post_init__(self) -> None:
        for name in (
            "page_bytes",
            "line_bytes",
            "l1_capacity_bytes",
            "l1_associativity",
            "l1_banks",
            "subblock_bytes",
        ):
            if not _is_power_of_two(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)} must be a power of two")
        page_offset_bits = _log2(self.page_bytes)
        if self.address_bits <= page_offset_bits:
            raise ValueError("address space must be larger than one page")
        if self.line_bytes > self.page_bytes:
            raise ValueError("cache lines cannot exceed the page size")
        if self.subblock_bytes > self.line_bytes:
            raise ValueError("sub-blocks cannot exceed the line size")
        if self.l1_capacity_bytes % (self.line_bytes * self.l1_associativity * self.l1_banks):
            raise ValueError("L1 capacity must divide evenly into banks, sets and ways")

        # ------------------------------------------------------------------
        # Derived widths and masks.  The dataclass is frozen, so the
        # geometry can never change after construction; precomputing every
        # shift/mask here keeps the per-access field extractors branch-free.
        # (`object.__setattr__` is required because the instance is frozen.)
        # ------------------------------------------------------------------
        store = lambda name, value: object.__setattr__(self, name, value)  # noqa: E731
        store("page_offset_bits", page_offset_bits)
        store("page_id_bits", self.address_bits - page_offset_bits)
        store("line_offset_bits", _log2(self.line_bytes))
        store("lines_per_page", self.page_bytes // self.line_bytes)
        store("line_in_page_bits", _log2(self.lines_per_page))
        store("subblocks_per_line", self.line_bytes // self.subblock_bytes)
        store("l1_total_lines", self.l1_capacity_bytes // self.line_bytes)
        store("l1_total_sets", self.l1_total_lines // self.l1_associativity)
        store("l1_sets_per_bank", self.l1_total_sets // self.l1_banks)
        store("bank_bits", _log2(self.l1_banks))
        store("set_bits", _log2(self.l1_sets_per_bank))
        store(
            "tag_bits",
            self.address_bits - self.line_offset_bits - self.bank_bits - self.set_bits,
        )
        store("max_address", (1 << self.address_bits) - 1)
        store(
            "arbitration_comparator_bits",
            self.address_bits - self.page_id_bits - self.line_offset_bits,
        )
        store("_page_offset_mask", self.page_bytes - 1)
        store("_line_offset_mask", self.line_bytes - 1)
        store("_line_in_page_mask", self.lines_per_page - 1)
        store("_bank_mask", self.l1_banks - 1)
        store("_set_mask", self.l1_sets_per_bank - 1)
        store("_set_shift", self.line_offset_bits + self.bank_bits)
        store("_tag_shift", self.line_offset_bits + self.bank_bits + self.set_bits)
        store("_subblock_shift", _log2(self.subblock_bytes))

    # ------------------------------------------------------------------
    # Field extraction
    # ------------------------------------------------------------------
    def check(self, address: int) -> int:
        """Validate that ``address`` fits the address space and return it."""
        if address < 0 or address > self.max_address:
            raise ValueError(
                f"address {address:#x} outside {self.address_bits}-bit address space"
            )
        return address

    def page_id(self, address: int) -> int:
        """Page identifier (virtual or physical, depending on the address)."""
        if address < 0 or address > self.max_address:
            self.check(address)
        return address >> self.page_offset_bits

    def page_offset(self, address: int) -> int:
        """Byte offset within the page."""
        if address < 0 or address > self.max_address:
            self.check(address)
        return address & self._page_offset_mask

    def line_address(self, address: int) -> int:
        """Line-granular address (address with the line offset cleared)."""
        if address < 0 or address > self.max_address:
            self.check(address)
        return address & ~self._line_offset_mask

    def line_number(self, address: int) -> int:
        """Global line index: address divided by the line size."""
        if address < 0 or address > self.max_address:
            self.check(address)
        return address >> self.line_offset_bits

    def line_offset(self, address: int) -> int:
        """Byte offset within the cache line."""
        if address < 0 or address > self.max_address:
            self.check(address)
        return address & self._line_offset_mask

    def line_in_page(self, address: int) -> int:
        """Index of the line inside its page (0..lines_per_page-1)."""
        return self.line_number(address) & self._line_in_page_mask

    def bank_index(self, address: int) -> int:
        """L1 bank servicing this address (line-interleaved)."""
        return self.line_number(address) & self._bank_mask

    def set_index(self, address: int) -> int:
        """Set index within the bank."""
        if address < 0 or address > self.max_address:
            self.check(address)
        return (address >> self._set_shift) & self._set_mask

    def tag(self, address: int) -> int:
        """L1 tag for this address."""
        if address < 0 or address > self.max_address:
            self.check(address)
        return address >> self._tag_shift

    # ------------------------------------------------------------------
    # Field composition
    # ------------------------------------------------------------------
    def compose(self, page_id: int, page_offset: int = 0) -> int:
        """Build an address from a page id and an offset within the page."""
        if page_offset < 0 or page_offset >= self.page_bytes:
            raise ValueError(f"page offset {page_offset} outside the page")
        if page_id < 0 or page_id >= (1 << self.page_id_bits):
            raise ValueError(f"page id {page_id:#x} outside the address space")
        return (page_id << self.page_offset_bits) | page_offset

    def compose_line(self, page_id: int, line_in_page: int, line_offset: int = 0) -> int:
        """Build an address from page id, line-in-page index and byte offset."""
        if line_in_page < 0 or line_in_page >= self.lines_per_page:
            raise ValueError(f"line index {line_in_page} outside the page")
        if line_offset < 0 or line_offset >= self.line_bytes:
            raise ValueError(f"line offset {line_offset} outside the line")
        offset = line_in_page * self.line_bytes + line_offset
        return self.compose(page_id, offset)

    def address_of_line(self, line_number: int) -> int:
        """Inverse of :meth:`line_number`."""
        return self.check(line_number << self.line_offset_bits)


#: Default geometry used throughout the reproduction (Table II of the paper).
DEFAULT_LAYOUT = AddressLayout()
