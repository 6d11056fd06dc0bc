"""MALEC core: the paper's primary contribution.

This package implements the two mechanisms the paper proposes:

* **Page-Based Memory Access Grouping** (Sec. IV) — the
  :class:`~repro.core.input_buffer.InputBuffer` groups pending loads and
  evicted merge-buffer entries by virtual page so that a single address
  translation per cycle can be shared by the whole group, and the
  :class:`~repro.core.arbitration.ArbitrationUnit` distributes the group over
  the four single-ported cache banks, merging loads that fall into the same
  cache line (or aligned sub-block pair).
* **Page-Based Way Determination** (Sec. V) — the
  :class:`~repro.core.way_table.WayTableHierarchy` attaches a way table to
  each TLB level (uWT next to the uTLB, WT next to the TLB) holding 2-bit
  validity + way codes for all 64 lines of a translated page, letting most
  accesses bypass the L1 tag arrays entirely.

The :class:`~repro.core.wdu.WayDeterminationUnit` re-implements Nicolaescu et
al.'s line-based WDU (extended with validity bits, as the paper does for its
comparison in Sec. VI-C).
"""

from repro.core.request import AccessKind, MemoryAccessRequest
from repro.core.way_table import WayTableHierarchy
from repro.core.wdu import WayDeterminationUnit
from repro.core.input_buffer import InputBuffer
from repro.core.arbitration import ArbitrationUnit, BankRequest

__all__ = [
    "AccessKind",
    "MemoryAccessRequest",
    "WayTableHierarchy",
    "WayDeterminationUnit",
    "InputBuffer",
    "ArbitrationUnit",
    "BankRequest",
]
