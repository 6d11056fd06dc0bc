"""Load queue, store buffer and merge buffer.

These structures are common to all analyzed configurations (Table I keeps
their sizes identical across Base1ldst, Base2ld1st and MALEC): a 40-entry
load queue, a 24-entry store buffer holding speculative stores until they
commit, and a 4-entry merge buffer that coalesces committed stores to the
same cache line before they are written back to the L1.

MALEC changes only their *lookup structures*: because all accesses of a cycle
share one page id, the store and merge buffer lookups are split into a shared
page-id segment and per-access narrow offset segments (Sec. IV).  The classes
below count both full-width and split lookups so the energy model can weigh
them, even though the paper ultimately excludes LQ/SB/MB energy from its
results (it is similar across configurations).
"""

from repro.buffers.load_queue import LoadQueue
from repro.buffers.store_buffer import StoreBuffer
from repro.buffers.merge_buffer import MergeBuffer

__all__ = [
    "LoadQueue",
    "StoreBuffer",
    "MergeBuffer",
]
