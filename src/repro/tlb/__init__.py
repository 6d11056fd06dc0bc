"""Address translation: page table, TLB and micro-TLB.

The paper's L1 interface performs serialized address translation and data
access (PIPT cache).  The translation path consists of a 16-entry uTLB backed
by a 64-entry TLB (Table II).  Both are fully associative and — because the
cache performs line fills and evictions with *physical* tags — support
reverse lookups by physical page id in addition to the usual virtual-page
lookups (Sec. V).  The uTLB uses second-chance replacement, the TLB random
replacement, as chosen by the paper to limit uWT/WT entry transfers.
"""

from repro.tlb.page_table import PageTable
from repro.tlb.tlb import TLB, TLBEntry, TLBHierarchy

__all__ = [
    "PageTable",
    "TLB",
    "TLBEntry",
    "TLBHierarchy",
]
