"""Cache substrate: generic set-associative arrays, L1 banks, L2 and misses.

The L1 data cache matches the configuration of Table II in the paper:
32 KByte, 4-way set-associative, 64-byte lines, physically indexed and
physically tagged, split into four independent single-ported banks with
128-bit sub-blocked data arrays.  The unified L2 (1 MByte, 16-way, 12-cycle)
and the DRAM model back it.

Two access modes are exposed, mirroring Sec. V of the paper:

* *conventional* — all tag arrays and all data arrays of the selected bank are
  probed in parallel;
* *reduced* — the way is known and valid (supplied by a way table or a WDU),
  the tag arrays are bypassed and only the one selected data array is read.
"""

from repro.cache.replacement import (
    LRUReplacement,
    RandomReplacement,
    ReplacementPolicy,
    SecondChanceReplacement,
    TreePLRUReplacement,
    make_replacement_policy,
)
from repro.cache.set_assoc import CacheLineState, SetAssociativeArray
from repro.cache.cache_bank import CacheBank
from repro.cache.l1_cache import L1DataCache
from repro.cache.l2_cache import L2Cache

__all__ = [
    "ReplacementPolicy",
    "LRUReplacement",
    "RandomReplacement",
    "SecondChanceReplacement",
    "TreePLRUReplacement",
    "make_replacement_policy",
    "CacheLineState",
    "SetAssociativeArray",
    "CacheBank",
    "L1DataCache",
    "L2Cache",
]
