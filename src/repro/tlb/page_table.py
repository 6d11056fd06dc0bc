"""Deterministic page table providing virtual-to-physical mappings.

The reproduction does not model an operating system, so the page table simply
allocates physical frames on first touch.  Frames are assigned by a
deterministic permutation of the allocation order so that physically-indexed
structures (the PIPT L1) see realistic, non-identity mappings while every
simulation run remains reproducible.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters


class PageTable:
    """Allocate-on-first-touch virtual to physical page mapping.

    Parameters
    ----------
    layout:
        Address geometry; determines page size and the number of frames.
    physical_pages:
        Number of physical frames available.  Defaults to enough frames for a
        256 MByte DRAM (Table II).  The reproduction never swaps; running out
        of frames raises, as it indicates an unrealistically large synthetic
        footprint.
    seed:
        Perturbs the frame-assignment permutation.
    """

    #: Large odd multiplier used to scatter frame numbers (Knuth's MMIX LCG).
    _MULTIPLIER = 6364136223846793005

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        physical_pages: Optional[int] = None,
        seed: int = 0,
        stats: Optional[StatCounters] = None,
    ) -> None:
        self.layout = layout
        if physical_pages is None:
            physical_pages = (256 * 1024 * 1024) // layout.page_bytes
        if physical_pages <= 0:
            raise ValueError("need at least one physical page")
        self.physical_pages = physical_pages
        self.seed = seed
        self.stats = stats if stats is not None else StatCounters()
        self._vpage_to_ppage: Dict[int, int] = {}
        self._used_frames: set[int] = set()
        self._next_index = 0
        # Per-walk counters resolved to integer slots once (hot path).
        self._h_allocation = self.stats.handle("page_table.allocation")
        self._h_walk = self.stats.handle("page_table.walk")

    # ------------------------------------------------------------------
    def _allocate_frame(self) -> int:
        """Pick the next free frame following a deterministic permutation."""
        if len(self._used_frames) >= self.physical_pages:
            raise RuntimeError("page table ran out of physical frames")
        while True:
            candidate = (
                (self._next_index * self._MULTIPLIER + self.seed) % self.physical_pages
            )
            self._next_index += 1
            if candidate not in self._used_frames:
                self._used_frames.add(candidate)
                return candidate

    def translate_page(self, virtual_page: int) -> int:
        """Return the physical page id for ``virtual_page``, allocating if new."""
        if virtual_page < 0 or virtual_page >= (1 << self.layout.page_id_bits):
            raise ValueError(f"virtual page {virtual_page:#x} outside the address space")
        ppage = self._vpage_to_ppage.get(virtual_page)
        if ppage is None:
            ppage = self._allocate_frame()
            self._vpage_to_ppage[virtual_page] = ppage
            self.stats.bump(self._h_allocation)
        self.stats.bump(self._h_walk)
        return ppage

    def reverse_translate_page(self, physical_page: int) -> Optional[int]:
        """Virtual page currently mapped to ``physical_page`` (or ``None``)."""
        for vpage, ppage in self._vpage_to_ppage.items():
            if ppage == physical_page:
                return vpage
        return None

    @property
    def mapped_pages(self) -> int:
        """Number of virtual pages mapped so far (the workload footprint)."""
        return len(self._vpage_to_ppage)
