"""Source generator for specialized simulation kernels (PR 8).

Given a :class:`~repro.sim.config.SimulationConfig`, :func:`build_spec`
extracts every value the hot loop branches on into a flat dict of
primitives, and :func:`generate_source` emits the text of a standalone
Python module whose single entry point::

    kernel_run(pipeline, seqs, total, capacity, trace_arrays) -> PipelineResult

is equivalent to the event-driven pipeline loop of
:meth:`repro.cpu.pipeline.OutOfOrderPipeline._run_event_driven` with the
interface tick, the acceptance checks and the stat accounting *fused in* and
specialized for that one configuration.  Both hold their ready seqs in
one heap, but a kernel keeps its own completion queue, its ROB is a window
of seqs (:func:`_loop_head`), and its issue stage does work proportional to
what can issue (:func:`_issue_stage`).  Equivalence arguments in those
docstrings and the differential tests, which also compare every clock
jump, hold them to it:

* config-dependent branches are resolved at generation time (interface kind,
  MALEC way determination, merge granularity, feedback, restricted
  allocation, and the L1/L2 geometry the shifts and masks come from);
* every number the code only uses as an operand (the pipeline widths, the
  LQ, SB and MB depths, the L1, L2 and DRAM latencies, and MALEC's result
  buses, merge window and Input Buffer capacity) is read into a local once
  per run, from the object that holds it (:func:`_prologue`), so
  configurations that differ only in such numbers share one kernel;
* attribute lookups are hoisted to locals once per run — but only for
  objects the run never rebinds (the generator documents each hoist; e.g.
  ``InputBuffer._held`` is rebound by ``retire`` and is therefore *never*
  hoisted);
* counts are batched into local integer accumulators (the cold paths'
  into a list of their own) that flush into ``StatCounters`` by name once
  at the end of the run, through one table (:func:`_flush_rows`) of
  ``(name, times)`` patterns, the model's own ``_combo_*`` tuples wherever
  it has one.  Sums of integers commute, so the flushed totals are
  bit-identical to per-access counting.

The uTLB, L1 and L2 misses are emitted once per kernel (generator v13), as
functions that a module-level factory binds to the run (:func:`_cold_paths`).

Bit-identity strategy — *probe, then commit or delegate*: every inlined fast
path starts with side-effect-free probes (dict ``.get`` and list reads).  Only
when the whole probe succeeds does the kernel apply the inline effects;
otherwise it calls the exact original method before having mutated anything,
so the one slow path left, a page walk, runs the canonical code and charges
the canonical counters.  Taken in the kernel, on the flat cache, TLB and
way-table columns, are:

* every translation but the walk: the uTLB hit and, on a uTLB miss, the TLB
  probe and the uTLB refill with its second-chance victim and, for MALEC's
  way tables, the uWT entry's write-back to the WT and refill from it.  A
  TLB miss calls :meth:`repro.tlb.tlb.TLBHierarchy.walk_page`, which the
  generic loop's translation calls too, so both share the walk and the
  TLB's random replacement draws;
* the store drain (``StoreBuffer.pop_committed``,
  ``MergeBuffer.commit_store`` and ``_queue_writeback``);
* L1 loads and writes (:func:`_l1_load_inline`, :func:`_l1_store_inline`):
  a MALEC access with a way hint probes the hinted slot, reduced when it
  holds the line, conventional after a wrong hint; the rest are
  conventional.  The writes are MALEC's MBE write, Base2ld1st's port
  write-back and Base1ldst's ``_writeback_to_cache``;
* the conventional L1 miss of a load or a store: the L2 access (on an L2
  miss the DRAM read, the fill at the set's lowest stamp and the dirty L2
  victim's DRAM write), the L1 fill with the evict and fill listeners in the
  order :meth:`repro.cache.cache_bank.CacheBank.fill_parts` calls them, and
  the dirty victim's write-back;
* MALEC's way determination: the way tables' listener updates (through
  reverse TLB lookups) and feedback writes, or the WDU's predictions,
  records and invalidations on its table.

Every address field is taken by shifts.  Where an inlined path replaces a
layout method (``page_id``, ``line_address``, ``bank_index``, ...), the
kernel keeps its range check as ``address > max_address`` alone: trace
addresses come from the columnar ``array("Q")`` column and physical ones are
a frame number shifted and or-ed with an offset, so neither is ever
negative.

All simulation state stays canonical — the kernel writes the same plain
values into the same containers the generic loop does: the load queue maps
each tag to its issue cycle, the baselines' load queues, MALEC's Input
Buffer and the store buffer hold ``(tag, address, size)`` tuples (the store
buffer's first ``_committed_count`` are its committed stores), the merge
buffer, MALEC's MBE backlog and its Input Buffer's MBE slot hold line
addresses, a MALEC bank request is the Arbitration Unit's ``[primary load,
merged loads, way hint]`` list, and ``PendingWriteback`` is the record the
generic loop builds too.  So a collector run, a fast-forward, or a later
generic run over the same interface observes identical structures.

The emitted module also begins with a battery of *runtime guards*: if the
live pipeline/interface does not match the generation-time spec (someone
swapped the replacement policy, reshaped the cache, attached a collector, …)
``kernel_run`` raises ``RuntimeError`` naming the failed check before
touching anything.  There is no silent fallback to the generic loop.  The
guards check what the code's shape was generated for; the numbers read
into locals need none.
"""

from __future__ import annotations

import re

from repro.cache.l2_cache import L2Cache
from repro.sim.config import InterfaceKind, SimulationConfig

#: bump when the emitted code changes so content hashes (and caches) roll over
GENERATOR_VERSION = 18

#: interface kinds this generator can specialize
KIND_CLASSES = {
    "Base1ldst": "BaselineSingleInterface",
    "Base2ld1st": "BaselineDualLoadInterface",
    "MALEC": "MalecInterface",
}


def build_spec(config: SimulationConfig) -> dict:
    """Flatten ``config`` into the primitive values that select the code the
    generator emits: its *shape*.

    The spec holds what the generator branches on or derives shifts and
    masks from, and nothing else: the numbers the code only uses as operands
    are read at run time (:func:`_prologue`), and ``name`` and ``seed`` are
    left out too, so configurations differing only in those share one
    compiled kernel (content-hash cache).
    """
    layout = config.cache.layout
    line_mask = layout._line_offset_mask
    spec = {
        "generator": GENERATOR_VERSION,
        "kind": config.interface.value,
        "class_name": KIND_CLASSES[config.interface.value],
        "restrict": config.restrict_way_allocation,
        "page_shift": layout.page_offset_bits,
        "page_off_mask": layout._page_offset_mask,
        "line_mask": line_mask,
        "line_neg_mask": ~line_mask,
        "nbanks": layout.l1_banks,
        "sets": layout.l1_sets_per_bank,
        "ways": layout.l1_associativity,
    }
    if config.interface is InterfaceKind.MALEC:
        malec = config.malec_options
        spec.update(
            way_determination=malec.way_determination,
            merge_granularity=malec.merge_granularity,
        )
        if malec.way_determination == "wt":
            spec["feedback"] = malec.enable_feedback_update
    return spec


# ----------------------------------------------------------------------
# Section builders.  Each returns text at its absolute indentation inside
# the generated ``kernel_run`` (4 = function body, 12 = tick body, 20 =
# issue-stage branch body).
# ----------------------------------------------------------------------
def _bits(spec: dict) -> dict:
    """Shifts and masks of the L1 address fields (the layout's line number,
    bank, set and tag)."""
    line_bits = spec["line_mask"].bit_length()
    bank_bits = spec["nbanks"].bit_length() - 1
    set_bits = spec["sets"].bit_length() - 1
    return {
        "line": line_bits,
        "bank_mask": spec["nbanks"] - 1,
        "set_shift": line_bits + bank_bits,
        "set_mask": spec["sets"] - 1,
        "tag_shift": line_bits + bank_bits + set_bits,
    }


def _l2_geometry(spec: dict) -> tuple:
    """``(sets, ways)`` of the L2 the layout's line size gives
    (:class:`~repro.cache.l2_cache.L2Cache`: 1024 x 16 for 64-byte lines)."""
    ways = L2Cache.ASSOCIATIVITY
    return L2Cache.CAPACITY_BYTES // (ways * (spec["line_mask"] + 1)), ways


def _header(spec: dict, content_hash: str) -> str:
    kind = spec["kind"]
    if kind == "MALEC":
        imports, extra = "from collections import deque\nfrom itertools import filterfalse\n", ""
    else:
        imports, extra = "", "from repro.interfaces.base import PendingWriteback\n"
    if spec["restrict"]:
        imports += "from math import inf\n"
    version = spec["generator"]
    return f'''"""Specialized {kind} simulation kernel (repro.sim.kernels generator v{version}).

Auto-generated for configuration content hash {content_hash}; do not
edit.  Dump via `repro report --kernel-source CONFIG` or
`repro.sim.kernels.kernel_source(config)`.
"""

import heapq
{imports}
from repro.cpu.pipeline import PipelineResult
{extra}'''


def _quiescent_expr(spec: dict) -> str:
    """The interface's quiescent() predicate over hoisted locals."""
    if spec["kind"] == "MALEC":
        return (
            "not pending_writebacks and store_buffer._committed_count == 0 "
            "and not ib._held and not ib._new and ib._mbe is None "
            "and not mbe_backlog"
        )
    return (
        "not pending_writebacks and store_buffer._committed_count == 0 "
        "and not pending_loads"
    )


def _check(condition: str) -> str:
    """One runtime guard: raise, naming ``condition``, when it holds."""
    message = f"specialized kernel guard failed: {condition}"
    return f"    if {condition}:\n        raise RuntimeError({message!r})"


def _guards(spec: dict) -> str:
    kind = spec["kind"]
    l2_sets, l2_ways = _l2_geometry(spec)
    lines = [
        "    # ---- runtime guards: a mismatch raises, naming the failed check ----",
        "    interface = pipeline.interface",
        "    params = pipeline.params",
        "    stats = pipeline.stats",
        _check("pipeline.collector is not None"),
        # the ROB is a window of these seqs (see _loop_head)
        _check("type(seqs) is not range or seqs.step != 1 or seqs.stop > capacity"),
        _check(f'type(interface).__name__ != "{spec["class_name"]}"'),
        _check("interface.stats is not stats"),
        "    layout = interface.layout",
        _check(f"layout.page_offset_bits != {spec['page_shift']}"),
        _check(f"layout._page_offset_mask != {spec['page_off_mask']}"),
        _check(f"layout._line_offset_mask != {spec['line_mask']}"),
        _check(f"layout.l1_banks != {spec['nbanks']}"),
        "    load_queue = interface.load_queue",
        "    store_buffer = interface.store_buffer",
        "    merge_buffer = interface.merge_buffer",
        "    l1 = interface.l1",
        "    banks = l1.banks",
        _check(f"len(banks) != {spec['nbanks']}"),
        "    bank0 = banks[0]",
        _check(f"bank0.array.num_sets != {spec['sets']}"),
        _check(f"bank0.array.ways != {spec['ways']}"),
        _check(f"bank0.restrict_way_allocation != {spec['restrict']}"),
        "    l2 = l1.l2",
        _check(f"l2.array.num_sets != {l2_sets}"),
        _check(f"l2.array.ways != {l2_ways}"),
        "    translation = interface.translation",
        "    utlb = translation.utlb",
        "    tlb = translation.tlb",
        # the uTLB replaces by second chance (it has reference bits), the
        # TLB at random (its lookups set none)
        _check("utlb._referenced is None"),
        _check("tlb._referenced is not None"),
    ]
    # only MALEC with way tables or a WDU registers L1 listeners
    if spec.get("way_determination", "none") == "none":
        lines.append(_check("l1._fill_listeners or l1._evict_listeners"))
    if spec.get("way_determination") != "wt":
        lines.append(_check("utlb._eviction_callbacks"))
    if kind == "Base1ldst":
        lines += [
            _check("interface.load_slots != 0"),
            _check("interface.store_slots != 0"),
            _check("interface.flexible_slots != 1"),
        ]
    elif kind == "Base2ld1st":
        lines += [
            _check("interface.load_slots != 2"),
            _check("interface.store_slots != 1"),
            _check("interface.flexible_slots != 0"),
            _check("interface.loads_per_cycle != 2"),
            _check("interface._MAX_ACCESSES_PER_BANK != 2"),
        ]
    else:  # MALEC
        lines += [
            "    ib = interface.input_buffer",
            "    arbitration = interface.arbitration",
            _check("interface.load_slots != 1"),
            _check("interface.store_slots != 0"),
            _check("interface.flexible_slots != 2"),
            _check(f'interface.way_determination != "{spec["way_determination"]}"'),
            _check(f'arbitration.merge_granularity != "{spec["merge_granularity"]}"'),
        ]
        # the listeners and the uTLB callback the kernel takes inline
        if spec["way_determination"] == "wt":
            lines += [
                "    way_tables = interface.way_tables",
                _check(f"way_tables.enable_feedback_update != {spec['feedback']}"),
                _check("l1._fill_listeners != [way_tables.on_line_fill]"),
                _check("l1._evict_listeners != [way_tables.on_line_evict]"),
                _check("utlb._eviction_callbacks != [way_tables._on_utlb_replacement]"),
            ]
        elif spec["way_determination"] == "wdu":
            lines += [
                "    wdu = interface.wdu",
                _check("l1._fill_listeners != [wdu.on_line_fill]"),
                _check("l1._evict_listeners != [wdu.on_line_evict]"),
            ]
    return "\n".join(lines) + "\n"


def _prologue(spec: dict) -> str:
    """The run's locals: the numbers the code uses as operands, read from
    the objects that hold them (so one kernel serves every value; the hot
    loop reads a local as cheaply as a constant), then the stable
    structures, the cold paths and the accumulators."""
    kind = spec["kind"]
    bits = _bits(spec)
    lines = [
        "",
        "    # ---- the numbers the code uses as operands, read once per run ----",
        "    rob_entries = params.rob_entries",
        "    fetch_width = params.fetch_width",
        "    issue_width = params.issue_width",
        "    commit_width = params.commit_width",
        "    lq_capacity = load_queue.entries",
        "    sb_capacity = store_buffer.entries",
        "    mb_capacity = merge_buffer.entries",
        "    hit_latency = l1.hit_latency",
        "    l2_hit_latency = hit_latency + l2.latency_cycles",
        "    dram_hit_latency = l2_hit_latency + l2.dram.latency_cycles",
    ]
    if kind == "MALEC":
        lines += [
            "    held_capacity = ib.held_capacity",
            "    result_buses = arbitration.result_buses",
        ]
        if spec["merge_granularity"] != "none":
            lines.append("    merge_window = arbitration.merge_window")
    lines += [
        "",
        "    # ---- hoisted structures (stable objects only: these attribute",
        "    # slots are mutated in place but never rebound during a run) ----",
        "    utlb_by_vpage_get = utlb._by_vpage.get",
        "    utlb_ppages = utlb._ppages",
        "    utlb_referenced = utlb._referenced",
        "    lq_entries = load_queue._entries",
        "    sb_entries = store_buffer._entries",
        "    mb_lines = merge_buffer._entries",
        "    bank_slot_of = [bank.array._slot_of for bank in banks]",
        "    bank_tags = [bank.array._tags for bank in banks]",
        "    bank_dirty = [bank.array._dirty for bank in banks]",
        "    bank_stamps = [bank.array._stamps for bank in banks]",
        "    bank_tick = [bank.array._tick for bank in banks]",
        "    max_address = layout.max_address",
        "    pending_writebacks = interface._pending_writebacks",
    ]
    if kind in ("Base1ldst", "Base2ld1st"):
        lines.append("    pending_loads = interface._pending_loads")
    if kind == "MALEC":
        lines += [
            "    mbe_backlog = interface._mbe_backlog",
            "    mk_deque = deque",
        ]
        if spec["merge_granularity"] == "subblock_pair":
            # same line and sub-block pair <=> equal address >> pair_shift
            lines.append(f"    pair_shift = min(layout._subblock_shift + 1, {bits['line']})")
        elif spec["merge_granularity"] == "subblock":
            lines.append("    subblock_shift = layout._subblock_shift")
        wd = spec["way_determination"]
        if wd == "wt":
            lines.append("    uwt = way_tables.uwt")
        elif wd == "wdu":
            lines += [
                "    wdu_table = wdu._table",
                "    wdu_get = wdu_table.get",
                "    wdu_touch = wdu_table.move_to_end",
                "    wdu_capacity = wdu.entries",
            ]
    lines += [
        "",
        "    # ---- the cold paths, and the list they count into ----",
        f"    utlb_miss, l1_miss, cold = cold_paths(\n{_cold_params(spec)}\n    )",
    ]
    # every accumulator of the hot loop the flush table names
    rows = " ".join(guard + " " + amount for guard, _, amount in _flush_rows(spec))
    accs = list(dict.fromkeys(re.findall(r"\bacc_\w+", rows)))
    lines += ["", "    # ---- batched accumulators, flushed at the run boundary ----"]
    for i in range(0, len(accs), 4):
        lines.append("    " + " = ".join(accs[i : i + 4]) + " = 0")
    return "\n".join(lines) + "\n"


def _loop_head(spec: dict) -> str:
    """Loop state and the retire stage, which hold the generic loop's
    facts in other shapes:

    * **Completions.**  The generic loop keeps one heap of ``(cycle,
      seq)``.  A kernel appends those due next cycle to ``due_next`` and
      files later ones in a calendar queue: per-cycle buckets plus a
      min-heap with one entry per bucket cycle, so loads completing
      together cost one heap push.  Retiring a cycle's completions in any
      order is equivalent: each only wakes consumers onto the ready heap,
      which issues in seq order.
    * **The ROB is the seq window** ``[rob_head, fetch_seq)``.  ``seqs``
      is a step-1 ``range`` (a guard checks it), and fetch and commit
      both go in seq order, so the generic ``rob_q`` holds exactly the
      window's seqs: ``in_rob[x]`` is ``rob_head <= x < fetch_seq`` and
      ``committed`` is ``rob_head - seqs.start``.  ``completed_f`` has a
      spare byte and nothing at or past ``fetch_seq`` has completed, so
      ``completed_f[rob_head]`` is the generic ``rob_q and
      completed_f[rob_q[0]]``.
    * ``NEVER`` is an int above any seq or cycle, so the issue merge and
      the clock jump compare ints only.
    """
    q = _quiescent_expr(spec)
    complete = """\
if completed_f[seq]:
    continue
completed_f[seq] = 1
waiting = consumers[seq]
if waiting is not None:
    consumers[seq] = None
    for consumer in waiting:
        left = pending_deps[consumer] - 1
        pending_deps[consumer] = left
        if left == 0 and not issued_f[consumer]:
            heappush(ready_heap, consumer)"""
    return f"""
    # ---- event-driven loop state: the ROB is the seq window
    # [rob_head, fetch_seq), one heap holds every ready seq, deferred
    # holds only loads and refused stores are parked ----
    max_cycles = pipeline.max_cycles or (200 * total + 100000)
    heappush = heapq.heappush
    heappop = heapq.heappop
    # Completions later than next cycle: a calendar queue of per-cycle
    # buckets and a min-heap with one entry per distinct bucket cycle.
    wheel_buckets = {{}}
    wheel_buckets_get = wheel_buckets.get
    wheel_buckets_pop = wheel_buckets.pop
    wheel_heap = []
    NEVER = 1 << 62
    wheel_next = NEVER
    first_seq = rob_head = fetch_seq = seqs.start
    fetch_end = seqs.stop
    cycle = 0
    last_commit_cycle = 0
    issued_f = bytearray(capacity)
    completed_f = bytearray(capacity + 1)
    pending_deps = [0] * capacity
    kinds, addresses, sizes, producers_of = trace_arrays
    consumers = [None] * capacity
    ready_heap = []
    deferred = []
    deferred_has_load = False
    deferred_blocking = False
    due_next = []
    store_order = []
    store_order_head = 0
    parked = bytearray(capacity)
    parked_count = 0
    parked_max = -1
    stores = 0
    issued_total = 0
    fast_forwarded = 0
    interface_active = not ({q})

    while rob_head < fetch_end:
        if cycle > max_cycles:
            raise RuntimeError(
                "pipeline exceeded %d cycles; likely deadlock (%d/%d committed)"
                % (max_cycles, rob_head - first_seq, total)
            )

        # 1. Retire completions scheduled for this cycle.
        if due_next:
            due_now = due_next
            due_next = []
            for seq in due_now:
{_shift(complete, 16)}
        if wheel_next <= cycle:
            while wheel_heap and wheel_heap[0] <= cycle:
                for seq in wheel_buckets_pop(heappop(wheel_heap)):
{_shift(complete, 20)}
            wheel_next = wheel_heap[0] if wheel_heap else NEVER
"""


def _issue_stage(spec: dict) -> str:
    """The issue stage, equivalent to the generic one but not transcribed:
    it never re-examines a memory op that cannot issue.

    The generic stage merges its deferred list and the ready heap by seq
    and pops every refused memory op again each cycle.  Here the merge
    takes the deferred list, the heap and one store candidate.  Two facts
    make most of the generic pops no-ops:

    * stores claim store-buffer entries in program order, so only
      ``store_order[store_order_head]`` can issue.  Refusing any other store
      only sets ``stores_blocked``, which blocks stores younger than it, and
      none of those is the head either.  So a refused store is *parked*
      (``parked[seq]``, ``parked_count``, ``parked_max``) and the merge sees
      one store candidate, ``s_store``: the head, when it is parked.  After
      a store issues, the next head becomes the candidate if it is parked,
      so MALEC's two flexible slots can still issue two stores in a cycle;
    * once ``loads_blocked`` is set every later load is refused, so the
      merge stops popping ``deferred`` (now slot-starved loads only) and
      merges its unexamined tail back, in seq order, at the end.

    The clock-jump flags come out as the generic stage computes them.
    ``deferred_has_load`` is this cycle's ``postponed_load``: a skipped load
    implies ``loads_blocked``, which implies a refused load.
    ``deferred_blocking`` is set when the issue width ran out with a
    deferred load or parked store younger than the last issued seq, the
    leftovers the generic merge would not have reached.  When only non-head
    stores are parked, the generic stage examines and refuses them all, so
    the stage is skipped and both flags are cleared.  (With an issue width
    above the three memory slots a cycle offers, ``deferred_blocking`` can
    never decide a jump: the width only runs out after computes or stores
    issued, and those sit in ``due_next``.  A narrower pipeline needs it.)
    """
    load, store = _issue_load(spec), _issue_store(spec)
    # zero only the slot counters the kind's load and store tests use
    slots = " = ".join(dict.fromkeys(re.findall(r"\w+_used", load + store)))
    return f"""
        # 2. Issue ready instructions (oldest first, up to issue width).
        s_store = NEVER
        if parked_count:
            head_store = store_order[store_order_head]
            if parked[head_store]:
                s_store = head_store
        if ready_heap or deferred or s_store is not NEVER:
            {slots} = 0
            issued = 0
            postponed = []
            postponed_load = False
            loads_blocked = False
            di = 0
            dn = dlen = len(deferred)
            simple = not dn and s_store is NEVER
            while issued < issue_width:
                if simple:
                    if not ready_heap:
                        break
                    seq = heappop(ready_heap)
                else:
                    s_def = deferred[di] if di < dn else NEVER
                    s_heap = ready_heap[0] if ready_heap else NEVER
                    if s_store < s_def and s_store < s_heap:
                        seq = s_store
                        s_store = NEVER
                        parked[seq] = 0
                        parked_count -= 1
                    elif s_def <= s_heap:
                        if s_def is NEVER:
                            break
                        seq = s_def
                        di += 1
                    else:
                        seq = heappop(ready_heap)
                # a ready seq was fetched: it is in the ROB unless committed
                if seq < rob_head or issued_f[seq]:
                    continue
                kind = kinds[seq]
                if kind == 0:  # compute: completes next cycle
                    issued_f[seq] = 1
                    due_next.append(seq)
                    issued += 1
                elif kind == 1:  # load
{load}
                else:  # store
{store}
            if di < dlen:
                # The unexamined loads: out of issue width, or skipped
                # behind loads_blocked (then possibly interleaved).
                if postponed:
                    interleaved = postponed[-1] > deferred[di]
                    postponed += deferred[di:]
                    if interleaved:
                        postponed.sort()
                else:
                    postponed = deferred[di:]
            deferred_blocking = issued == issue_width and bool(
                (postponed and postponed[-1] > seq)
                or (parked_count and parked_max > seq)
            )
            deferred = postponed
            deferred_has_load = postponed_load
            issued_total += issued
        elif parked_count:
            deferred_blocking = deferred_has_load = False
"""


def _issue_load(spec: dict) -> str:
    refuse = """
                    else:
                        loads_blocked = True
                        dn = di
                        postponed.append(seq)
                        postponed_load = True"""
    if spec["kind"] == "MALEC":  # dedicated slot first, then flexible (reserve_load_slot)
        return f"""\
                    accepted = False
                    if (
                        not loads_blocked
                        and len(lq_entries) < lq_capacity
                        and len(ib._held) <= held_capacity
                    ):
                        if loads_used < 1:
                            loads_used += 1
                            accepted = True
                        elif flex_used < 2:
                            flex_used += 1
                            accepted = True
                    if accepted:
                        issued_f[seq] = 1
                        lq_entries[seq] = cycle
                        acc_load_submit += 1
                        acc_ib_load_in += 1
                        # InputBuffer.add_load, after _enqueue_load's range check
                        address = addresses[seq]
                        if address > max_address:
                            layout.check(address)
                        ib._new.append((seq, address, sizes[seq]))
                        interface_active = True
                        issued += 1{refuse}"""
    slot, consume = {
        "Base1ldst": ("flex_used == 0", "flex_used = 1"),
        "Base2ld1st": ("loads_used < 2", "loads_used += 1"),
    }[spec["kind"]]
    return f"""\
                    if (
                        not loads_blocked
                        and {slot}
                        and len(lq_entries) < lq_capacity
                        and len(pending_loads) < 4
                    ):
                        {consume}
                        issued_f[seq] = 1
                        lq_entries[seq] = cycle
                        acc_load_submit += 1
                        pending_loads.append((seq, addresses[seq], sizes[seq]))
                        interface_active = True
                        issued += 1{refuse}"""


def _issue_store(spec: dict) -> str:
    slot_check, consume = {
        "Base1ldst": ("flex_used == 0", "flex_used = 1"),
        "Base2ld1st": ("stores_used < 1", "stores_used += 1"),
        "MALEC": ("flex_used < 2", "flex_used += 1"),
    }[spec["kind"]]
    probe = ""  # MALEC does not translate at store submission
    if spec["kind"] != "MALEC":
        # _on_store_submitted: translate_pair, its result unused
        probe = f"""
                        vpage = address >> {spec['page_shift']}
{_translate_inline(spec, "vpage", 24, check="address")}"""
    # An unissued store lies at or past store_order_head: the index is in range.
    return f"""\
                    if (
                        store_order[store_order_head] == seq
                        and len(sb_entries) < sb_capacity
                        and {slot_check}
                    ):
                        {consume}
                        store_order_head += 1
                        issued_f[seq] = 1
                        address = addresses[seq]
                        sb_entries.append((seq, address, sizes[seq]))
                        acc_store_submit += 1{probe}
                        interface_active = True
                        due_next.append(seq)
                        issued += 1
                        if parked_count:
                            head_store = store_order[store_order_head]
                            if parked[head_store]:
                                s_store = head_store
                                simple = False
                    else:
                        parked[seq] = 1
                        parked_count += 1
                        if seq > parked_max:
                            parked_max = seq"""


# The shared fragments below are emitted at several indentation depths; they
# are written indent-relative and shifted with _shift().  The cold paths are
# emitted once, at their depth in the cold_paths factory (_cold_paths).
def _shift(text: str, spaces: int) -> str:
    pad = " " * spaces
    return "\n".join(pad + line if line.strip() else line for line in text.split("\n"))


#: the cold paths' counters, by name: slots of their list ``cold``.  The L1
#: miss counts a load miss in slot 0, a store miss in slot 1: ``cold[dirty]``.
_COLD = {
    name: f"cold[{slot}]"
    for slot, name in enumerate(
        "l1_load_miss l1_store_miss l1_evict l1_writeback l2_miss l2_writeback tlb_hit tlb_miss"
        " utlb_eviction uwt_writeback locate_uwt locate_wt evict_unmapped unencodable"
        " wdu_update wdu_eviction wdu_invalidate".split()
    )
}


def _cold_params(spec: dict) -> str:
    """``cold_paths``' parameters: what the cold paths share with the hot
    loop, and the objects the rest of their structures hang off."""
    extra = {"wt": "way_tables, uwt,", "wdu": "wdu_table, wdu_touch, wdu_capacity,"}
    lines = (
        "layout, max_address, utlb, utlb_referenced, utlb_ppages, tlb, translation,",
        "bank_slot_of, bank_tags, bank_dirty, bank_stamps, bank_tick, l2,",
        "l2_hit_latency, dram_hit_latency,",
        extra.get(spec.get("way_determination"), ""),
    )
    return "\n".join(" " * 8 + line for line in lines if line)


def _cold_paths(spec: dict) -> str:
    """``cold_paths``, the factory ``kernel_run`` calls once to bind its
    cold paths to the run: the uTLB, L1 and L2 misses, each emitted once.
    A function nested in ``kernel_run`` that read its locals would make
    them cell variables, and every hot access to them a ``LOAD_DEREF``, so
    the paths get what they share with the hot loop as parameters, and
    count into a list of their own, ``cold`` (:data:`_COLD`)."""
    wt = ""
    if spec.get("way_determination") == "wt":
        wt = """
    wt = way_tables.wt
    utlb_by_ppage_get = utlb_by_ppage.get
    tlb_by_ppage_get = tlb._by_ppage.get"""
    return f'''

def cold_paths(
{_cold_params(spec)}
):
    cold = [0] * {len(_COLD)}
    utlb_by_vpage = utlb._by_vpage
    utlb_by_ppage = utlb._by_ppage
    utlb_vpages = utlb._vpages
    utlb_entries = utlb.entries
    tlb_by_vpage_get = tlb._by_vpage.get
    tlb_ppages = tlb._ppages
    walk_page = translation.walk_page
    walk_latency = translation.walk_latency
    l2_slot_of = l2.array._slot_of
    l2_slot_of_get = l2_slot_of.get
    l2_tags = l2.array._tags
    l2_dirty = l2.array._dirty
    l2_stamps = l2.array._stamps
    l2_tick = l2.array._tick
    dram_check = l2.dram._check
    # DRAMModel._check raises at or past this address
    dram_limit = min(l2.dram.CAPACITY_BYTES, max_address + 1){wt}
{_l2_miss(spec)}
{_l1_miss(spec)}
{_utlb_miss(spec)}

    return utlb_miss, l1_miss, cold


def kernel_run(pipeline, seqs, total, capacity, trace_arrays):
'''


def _utlb_miss(spec: dict) -> str:
    """``utlb_miss(page)``: a uTLB miss of ``translate_page_pair`` on the
    flat TLB columns, returning ``(physical_page, translation_latency)``
    and, with way tables, the page's uTLB slot.  A TLB hit refills the uTLB
    as ``TLB.insert`` does: the second-chance victim of ``TLB._victim``,
    the slot's pages and dicts and, with way tables, the write-back of the
    victim's uWT entry to the WT and the refill from the WT
    (``_on_utlb_replacement``).  A TLB miss calls ``walk_page``, the one
    call that leaves the kernel.  (The refill counts its uTLB fill and uWT
    transfer with the TLB hit: see :func:`_flush_rows`.)"""
    lpp = _lines_per_page(spec)
    reprobe = transfer = slot = ""
    if spec.get("way_determination") == "wt":
        reprobe, slot = ", utlb_by_vpage.get(page)", ", slot"

        def entry(base: str) -> str:
            return f"{base} * {lpp} : {base} * {lpp} + {lpp}"

        transfer = f"""
            wt_slot = tlb_by_ppage_get(old_ppage)
            if wt_slot is not None:
                wt[{entry("wt_slot")}] = uwt[{entry("slot")}]
                {_COLD['uwt_writeback']} += 1
        uwt[{entry("slot")}] = wt[{entry("tlb_slot")}]
        if way_tables._last_uwt_slot == slot:
            way_tables._last_uwt_slot = None"""
    return f"""
    def utlb_miss(page):
        tlb_slot = tlb_by_vpage_get(page)
        if tlb_slot is None:
            {_COLD['tlb_miss']} += 1
            physical_page = walk_page(page)
            return physical_page, walk_latency{reprobe}
        {_COLD['tlb_hit']} += 1
        physical_page = tlb_ppages[tlb_slot]
        if len(utlb_by_vpage) < utlb_entries:
            slot = utlb_vpages.index(None)
        else:
            slot = utlb._hand
            while utlb_referenced[slot]:
                utlb_referenced[slot] = 0
                slot = (slot + 1) % utlb_entries
            utlb._hand = (slot + 1) % utlb_entries
        old_ppage = utlb_ppages[slot]
        if old_ppage is not None:
            {_COLD['utlb_eviction']} += 1
            del utlb_by_vpage[utlb_vpages[slot]]
            del utlb_by_ppage[old_ppage]{transfer}
        utlb_vpages[slot] = page
        utlb_ppages[slot] = physical_page
        utlb_by_vpage[page] = slot
        utlb_by_ppage[physical_page] = slot
        utlb_referenced[slot] = 1
        return physical_page, 1{slot}"""


def _translate_inline(spec: dict, page: str, indent: int, check: str = "") -> str:
    """``TLBHierarchy.translate_page_pair`` of the page id ``page``: a uTLB
    hit, else a call of :func:`_utlb_miss`; sets ``physical_page`` and
    ``translation_latency`` (with way tables also ``slot``).  ``check``
    names the address whose range check (``layout.page_id``'s) a miss
    runs first; a hit implies it, as only walked pages are resident."""
    miss = ""
    if check:
        miss = f"\n    if {check} > max_address:\n        layout.check({check})"
    slot = ", slot" if spec.get("way_determination") == "wt" else ""
    text = f"""\
slot = utlb_by_vpage_get({page})
if slot is not None:
    acc_utlb_hit += 1
    utlb_referenced[slot] = 1
    physical_page = utlb_ppages[slot]
    translation_latency = 0
else:{miss}
    physical_page, translation_latency{slot} = utlb_miss({page})"""
    return _shift(text, indent)


def _translate_pair_inline(spec: dict, addr: str, indent: int) -> str:
    """``TLBHierarchy.translate_pair`` of ``addr``: sets ``physical`` and
    ``translation_latency``."""
    text = f"""\
vpage = {addr} >> {spec['page_shift']}
{_translate_inline(spec, "vpage", 0, check=addr)}
physical = (physical_page << {spec['page_shift']}) | ({addr} & {spec['page_off_mask']})"""
    return _shift(text, indent)


def _drain_inline(spec: dict) -> str:
    """``BaseL1Interface._drain_committed_stores`` on the canonical containers:
    ``StoreBuffer.pop_committed`` (entry 0: the committed stores are the
    oldest), ``MergeBuffer.commit_store`` with ``line_address``'s range
    check, and the kind's ``_queue_writeback`` of an evicted line."""
    queue = "pending_writebacks.append(PendingWriteback(evicted))"
    if spec["kind"] == "MALEC":
        queue = "mbe_backlog.append(evicted)"
    text = f"""\
daddr = sb_entries.pop(0)[1]
store_buffer._committed_count -= 1
acc_sb_drain += 1
if daddr > max_address:
    layout.check(daddr)
dline = daddr & {spec['line_neg_mask']}
if dline in mb_lines:
    acc_mb_merged += 1
else:
    if len(mb_lines) >= mb_capacity:
        evicted = mb_lines.pop(0)
        acc_mb_eviction += 1
        {queue}
    mb_lines.append(dline)
    acc_mb_allocate += 1"""
    return _shift(text, 16)


def _forwarding_inline(spec: dict, addr: str, size: str, acc_charge: str, indent: int) -> str:
    """BaseL1Interface._forwarding_lookups with the charge batched."""
    text = f"""\
{acc_charge} += 1
fwd_end = {addr} + {size}
for _fw_tag, fw_start, fw_size in reversed(sb_entries):
    if fw_start < fwd_end and {addr} < fw_start + fw_size:
        acc_sb_forward += 1
        break
if ({addr} & {spec['line_neg_mask']}) in mb_lines:
    acc_mb_forward += 1"""
    return _shift(text, indent)


def _l1_fields(spec: dict, phys: str, indent: int, checked: bool = False) -> str:
    """``pbank``, ``set_index`` and ``ptag`` of ``phys`` by shifts, after the
    range check of the ``layout.bank_index`` that ``L1DataCache.load_parts``
    and ``store_parts`` call.  ``checked`` drops the check for a line
    address ``line_address`` made.
    (Physical addresses are a page number shifted and or-ed with an offset,
    so never negative.)"""
    bits = _bits(spec)
    check = "" if checked else f"if {phys} > max_address:\n    layout.check({phys})\n"
    text = f"""\
{check}pbank = ({phys} >> {bits['line']}) & {bits['bank_mask']}
set_index = ({phys} >> {bits['set_shift']}) & {bits['set_mask']}
ptag = {phys} >> {bits['tag_shift']}"""
    return _shift(text, indent)


def _l2_miss(spec: dict) -> str:
    """``l2_miss(addr, line, dirty)``: ``L2Cache.access``'s miss of the line
    number ``line`` of ``addr`` on the flat columns: the DRAM read, the fill
    at the lowest of the set's stamps (``dirty`` for a write-back), and a
    dirty victim's DRAM write at its own line address."""
    sets, ways = _l2_geometry(spec)
    set_bits = sets.bit_length() - 1
    return f"""
    def l2_miss(addr, line, dirty):
        if addr >= dram_limit:
            dram_check(addr)
        {_COLD['l2_miss']} += 1
        l2_set = line & {sets - 1}
        l2_base = l2_set * {ways}
        l2_window = l2_stamps[l2_base : l2_base + {ways}]
        l2_fill = l2_base + l2_window.index(min(l2_window))
        l2_victim = l2_tags[l2_fill]
        l2_victim_dirty = l2_dirty[l2_fill]
        if l2_victim != -1:
            del l2_slot_of[(l2_victim << {set_bits}) | l2_set]
        l2_tags[l2_fill] = line >> {set_bits}
        l2_dirty[l2_fill] = dirty
        l2_stamps[l2_fill] = next(l2_tick)
        l2_slot_of[line] = l2_fill
        if l2_victim_dirty:
            l2_victim = ((l2_victim << {set_bits}) | l2_set) << {_bits(spec)['line']}
            if l2_victim >= dram_limit:
                dram_check(l2_victim)
            {_COLD['l2_writeback']} += 1"""


def _evict_listener(spec: dict) -> str:
    """The L1 evict listener on ``vline``, the victim's line number: the WDU
    drops the line; the way tables clear its code in its page's entry,
    found by reverse lookups, the uWT's before the WT's
    (``WayTableHierarchy._locate``)."""
    wd = spec.get("way_determination")
    if wd == "wdu":
        return f"""
if vline in wdu_table:
    del wdu_table[vline]
    {_COLD['wdu_invalidate']} += 1"""
    if wd != "wt":
        return ""
    lpp = _lines_per_page(spec)
    return f"""
victim_page = vline >> {(lpp - 1).bit_length()}
victim_slot = utlb_by_ppage_get(victim_page)
if victim_slot is not None:
    {_COLD['locate_uwt']} += 1
    uwt[victim_slot * {lpp} + (vline & {lpp - 1})] = 0
else:
    victim_slot = tlb_by_ppage_get(victim_page)
    if victim_slot is None:
        {_COLD['evict_unmapped']} += 1
    else:
        {_COLD['locate_wt']} += 1
        wt[victim_slot * {lpp} + (vline & {lpp - 1})] = 0"""


def _record_way(spec: dict, way: str) -> str:
    """``WayTableHierarchy._record`` of ``way`` for the line ``lip`` of the
    group's uWT entry: the way plus one, or unknown (0) for the line's
    excluded way.  A restricted fill never takes that way (see
    :func:`_l1_miss`), so no resident line is in it and a restricted kernel
    skips the test; an unrestricted one leaves its outcome in ``excluded``."""
    if spec["restrict"]:
        return f"uwt[wt_offset + lip] = {way} + 1"
    return f"""excluded = {way} == (lip // {spec['nbanks']}) % {spec['ways']}
uwt[wt_offset + lip] = 0 if excluded else {way} + 1"""


def _fill_listener(spec: dict) -> str:
    """The L1 fill listener on ``pline``, the filled line's number: the WDU
    records its way; the way tables record it in the uWT.  A kernel fills
    only lines of the group's page, which the group's translation left in
    the uTLB, so the reverse lookup finds the slot in the last-entry
    register, which the group's uWT read set."""
    wd = spec.get("way_determination")
    if wd == "wdu":
        return "\n" + _wdu_record("pline", "fill_way", _COLD["wdu_update"], _COLD["wdu_eviction"])
    if wd != "wt":
        return ""
    lpp = _lines_per_page(spec)
    text = f"""
lip = pline & {lpp - 1}
wt_offset = way_tables._last_uwt_slot * {lpp}
{_record_way(spec, "fill_way")}"""
    if not spec["restrict"]:
        text += f"\nif excluded:\n    {_COLD['unencodable']} += 1"
    return text


def _wdu_record(line: str, way: str, updates: str, evictions: str) -> str:
    """``WayDeterminationUnit.record`` of ``way`` for the line number
    ``line``, LRU eviction included, counted into ``updates`` and
    ``evictions``: the hot feedback's or the cold fill listener's."""
    return f"""\
{updates} += 1
if {line} in wdu_table:
    wdu_table[{line}] = {way}
    wdu_touch({line})
else:
    if len(wdu_table) >= wdu_capacity:
        wdu_table.popitem(last=False)
        {evictions} += 1
    wdu_table[{line}] = {way}"""


def _l1_miss(spec: dict) -> str:
    """``l1_miss(phys, pbank, set_index, ptag, dirty)``: the conventional
    miss of ``load_parts`` (``dirty`` 0) or ``store_parts`` (``dirty`` 1,
    a dirty fill) of ``phys`` and its fields on the flat columns.  First
    the ``L2Cache.access`` of the line (for a power-of-two set count the
    L2's ``_slot_of`` key is the line number), then the fill of
    ``CacheBank.fill_parts`` with its evict and fill listeners, then the
    dirty victim's write-back to the L2.  Returns the latency."""
    bits = _bits(spec)
    line_bits = bits["line"]
    ways = spec["ways"]
    exclude = ""
    if spec["restrict"]:  # CacheBank.excluded_way_for: (line_in_page // banks) % ways
        lip = f"pline & {_lines_per_page(spec) - 1}"
        exclude = f"\n        window[(({lip}) // {spec['nbanks']}) % {ways}] = inf"
    bank_shift = bits["set_shift"] - line_bits
    victim_tag_shift = bits["tag_shift"] - line_bits
    listeners = _shift(_evict_listener(spec), 12) + _shift(_fill_listener(spec), 8)
    return f"""
    def l1_miss(phys, pbank, set_index, ptag, dirty):
        cold[dirty] += 1  # slot 0 counts the load misses, slot 1 the store misses
        pline = phys >> {line_bits}
        l2_slot = l2_slot_of_get(pline)
        if l2_slot is not None:
            l2_stamps[l2_slot] = next(l2_tick)
            latency = l2_hit_latency
        else:
            l2_miss(phys, pline, 0)
            latency = dram_hit_latency
        base = set_index * {ways}
        stamps = bank_stamps[pbank]
        window = stamps[base : base + {ways}]{exclude}
        fill_way = window.index(min(window))
        fill_slot = base + fill_way
        tags = bank_tags[pbank]
        dirty_bits = bank_dirty[pbank]
        slot_of = bank_slot_of[pbank]
        victim_tag = tags[fill_slot]
        victim_dirty = dirty_bits[fill_slot]
        if victim_tag != -1:
            del slot_of[victim_tag * {spec['sets']} + set_index]
        tags[fill_slot] = ptag
        dirty_bits[fill_slot] = dirty
        stamps[fill_slot] = next(bank_tick[pbank])
        slot_of[ptag * {spec['sets']} + set_index] = fill_slot
        if victim_tag != -1:
            vline = (victim_tag << {victim_tag_shift}) | (set_index << {bank_shift}) | pbank
            victim = vline << {line_bits}
            if victim > max_address:
                layout.check(victim)
            {_COLD['l1_evict']} += 1
            if victim_dirty:
                {_COLD['l1_writeback']} += 1{listeners}
        if victim_dirty:
            l2_slot = l2_slot_of_get(vline)
            if l2_slot is not None:
                l2_stamps[l2_slot] = next(l2_tick)
                l2_dirty[l2_slot] = 1
            else:
                l2_miss(victim, vline, 1)
        return latency"""


def _hinted_probe(spec: dict, hit: str, wrong: str, conventional: str) -> str:
    """A MALEC access with a way hint (``way_hint``, ``None`` when unknown):
    ``hit`` when the hinted slot ``l1_slot`` holds the line, else the
    conventional access, after counting a wrong hint in ``wrong``."""
    ways = spec["ways"]
    return f"""\
if way_hint is not None and bank_tags[pbank][(l1_slot := set_index * {ways} + way_hint)] == ptag:
    bank_stamps[pbank][l1_slot] = next(bank_tick[pbank])
{_shift(hit, 4)}
else:
    if way_hint is not None:
        {wrong} += 1
{_shift(conventional, 4)}"""


def _l1_load_inline(spec: dict, phys: str, hinted: bool, indent: int) -> str:
    """``L1DataCache.load_parts`` on the flat columns: probe the hinted
    slot (``hinted``: a reduced read when it holds the line; else the hint
    was wrong, and ``CacheBank.read_parts`` has read the hinted way's data
    array for nothing), then the conventional lookup.  A hit stamps the
    slot; a miss fills the line (:func:`_l1_miss`).

    Expects ``pbank``, ``set_index`` and ``ptag`` of ``phys``; with
    ``hinted``, also ``way_hint``.  Sets ``latency`` and ``l1_slot``, which
    is ``None`` after a miss.
    """
    conventional = f"""\
l1_slot = bank_slot_of[pbank].get(ptag * {spec['sets']} + set_index)
if l1_slot is not None:
    bank_stamps[pbank][l1_slot] = next(bank_tick[pbank])
    acc_l1_conv_hit += 1
    latency = hit_latency
else:
    latency = l1_miss({phys}, pbank, set_index, ptag, 0)"""
    if hinted:
        reduced = "acc_l1_reduced_hit += 1\nlatency = hit_latency"
        conventional = _hinted_probe(spec, reduced, "acc_l1_hint_wrong", conventional)
    return _shift(conventional, indent)


def _l1_store_inline(spec: dict, phys: str, hinted: bool, indent: int) -> str:
    """``L1DataCache.store_parts`` on the flat columns: probe the hinted
    slot (``hinted``: a reduced write when it holds the line; else the hint
    was wrong), then the conventional lookup.  A hit marks the slot dirty
    and stamps it; a miss fills the line dirty (:func:`_l1_miss`).

    Expects ``pbank``, ``set_index`` and ``ptag`` of ``phys``; with
    ``hinted``, also ``way_hint``.
    """
    conventional = f"""\
l1_slot = bank_slot_of[pbank].get(ptag * {spec['sets']} + set_index)
if l1_slot is not None:
    bank_dirty[pbank][l1_slot] = 1
    bank_stamps[pbank][l1_slot] = next(bank_tick[pbank])
    acc_store_conv_hit += 1
else:
    l1_miss({phys}, pbank, set_index, ptag, 1)"""
    if hinted:
        reduced = "bank_dirty[pbank][l1_slot] = 1\nacc_store_reduced_hit += 1"
        conventional = _hinted_probe(spec, reduced, "acc_store_hint_wrong", conventional)
    return _shift(conventional, indent)


def _writeback_line(spec: dict, indent: int) -> str:
    """``wb_line``: the physical line of ``writeback``, translated (and kept
    on the record) the first time, as ``_writeback_to_cache`` does."""
    text = f"""\
wb_line = writeback.physical_line_address
if wb_line is None:
    wb_virtual = writeback.virtual_line_address
{_translate_pair_inline(spec, "wb_virtual", 4)}
    if physical > max_address:
        layout.check(physical)
    wb_line = writeback.physical_line_address = physical & {spec['line_neg_mask']}"""
    return _shift(text, indent)


def _release_and_schedule(indent: int, tag: str, ready: str) -> str:
    """LoadQueue.complete_release fused with the pipeline's completion
    scheduling (independent state, so interleaving them per completion is
    equivalent to the generic release-all-then-schedule-all order)."""
    text = f"""\
acc_lq_latency += {ready} - lq_entries.pop({tag})
acc_lq_completed += 1
if rob_head <= {tag} < fetch_seq and not completed_f[{tag}]:
    if {ready} <= cycle + 1:
        due_next.append({tag})
    else:
        bucket = wheel_buckets_get({ready})
        if bucket is None:
            wheel_buckets[{ready}] = [{tag}]
            heappush(wheel_heap, {ready})
        else:
            bucket.append({tag})
        if {ready} < wheel_next:
            wheel_next = {ready}"""
    return _shift(text, indent)


def _tick(spec: dict) -> str:
    ticks = {"Base1ldst": _tick_1ldst, "Base2ld1st": _tick_2ld1st, "MALEC": _tick_malec}
    return ticks[spec["kind"]](spec)


def _tick_1ldst(spec: dict) -> str:
    return f"""\
            if store_buffer._committed_count:
{_drain_inline(spec)}
            if pending_loads:
                tag, address, size = pending_loads.popleft()
{_translate_pair_inline(spec, "address", 16)}
{_forwarding_inline(spec, "address", "size", "acc_fwd_full", 16)}
{_l1_fields(spec, "physical", 16)}
{_l1_load_inline(spec, "physical", False, 16)}
                acc_load_accesses += 1
                ready_cycle = cycle + translation_latency + latency
{_release_and_schedule(16, "tag", "ready_cycle")}
            elif pending_writebacks:
                # ---- _writeback_to_cache ----
                writeback = pending_writebacks.popleft()
{_writeback_line(spec, 16)}
{_l1_fields(spec, "wb_line", 16, checked=True)}
{_l1_store_inline(spec, "wb_line", False, 16)}
                acc_mbe_written += 1
"""


def _tick_2ld1st(spec: dict) -> str:
    bits = _bits(spec)
    return f"""\
            if store_buffer._committed_count:
{_drain_inline(spec)}
            if pending_loads or pending_writebacks:
                completions = []
                bank_accesses = {{}}
                serviced = 0
                while pending_loads and serviced < 2:
                    tag, address, size = pending_loads.popleft()
                    # layout.bank_index of the virtual address
                    if address > max_address:
                        layout.check(address)
                    bank = (address >> {bits['line']}) & {bits['bank_mask']}
{_translate_pair_inline(spec, "address", 20)}
{_forwarding_inline(spec, "address", "size", "acc_fwd_full", 20)}
{_l1_fields(spec, "physical", 20)}
{_l1_load_inline(spec, "physical", False, 20)}
                    bank_accesses[bank] = bank_accesses.get(bank, 0) + 1
                    completions.append((tag, cycle + translation_latency + latency))
                    acc_load_accesses += 1
                    serviced += 1
                if pending_writebacks:
                    writeback = pending_writebacks[0]
{_writeback_line(spec, 20)}
                    pbank = (wb_line >> {bits['line']}) & {bits['bank_mask']}
                    if bank_accesses.get(pbank, 0) < 2:
                        pending_writebacks.popleft()
                        set_index = (wb_line >> {bits['set_shift']}) & {bits['set_mask']}
                        ptag = wb_line >> {bits['tag_shift']}
{_l1_store_inline(spec, "wb_line", False, 24)}
                        acc_mbe_written += 1
                for tag, ready_cycle in completions:
{_release_and_schedule(20, "tag", "ready_cycle")}
"""


def _merge_scan(spec: dict) -> str:
    """ArbitrationUnit's merge window scan, granularity resolved now.

    Loads are compared by one shift of their addresses: equal line numbers
    (``line``), equal ``address >> subblock_shift`` (same line and
    sub-block) or equal ``address >> pair_shift`` (same line and aligned
    sub-block pair).  Only loads own banks while loads are arbitrated (the
    MBE comes last), so no owner is a write.
    """
    gran = spec["merge_granularity"]
    if gran == "none":
        return ""
    shift = {
        "line": str(_bits(spec)["line"]),
        "subblock_pair": "pair_shift",
        "subblock": "subblock_shift",
    }[gran]
    return f"""
                    if position <= merge_window:
                        merge_key = laddr >> {shift}
                        for owner in bank_owner.values():
                            acc_line_compare += 1
                            if owner[0][1] >> {shift} == merge_key:
                                if loads_granted >= result_buses:
                                    break
                                owner[1].append(load)
                                serviced.append(load)
                                loads_granted += 1
                                merged = True
                                acc_merged_load += 1
                                break"""


def _lines_per_page(spec: dict) -> int:
    """Lines per page: the codes of one way-table entry."""
    return 1 << (spec["page_shift"] - _bits(spec)["line"])


def _translate_group(spec: dict) -> str:
    """The group's one translation; with way tables, then
    WayTableHierarchy.predict_page.  Every translation leaves the page in
    the uTLB, so the uWT entry is the one of the translation's uTLB slot,
    and its reference bit is already set."""
    text = "                # ---- translate_page_pair ----\n" + _translate_inline(spec, "page", 16)
    if spec["way_determination"] != "wt":
        return text
    return text + f"""
                # ---- the uWT entry read (it sets the last-entry register):
                # its codes start at wt_offset ----
                way_tables._last_uwt_slot = slot
                acc_uwt_read += 1
                wt_offset = slot * {_lines_per_page(spec)}"""


def _assign_ways(spec: dict) -> str:
    """ArbitrationUnit._assign_way_hints: the loads' bank requests, then the
    MBE's (the last bank request).  A code is the way plus one, 0 unknown."""
    if spec["way_determination"] != "wt":
        return ""
    line_bits = _bits(spec)["line"]
    return f"""
                for bank_request in bank_requests:
                    lip = (bank_request[0][1] >> {line_bits}) & {_lines_per_page(spec) - 1}
                    code = uwt[wt_offset + lip]
                    if code:
                        bank_request[2] = code - 1
                        acc_way_hint_assigned += 1
                if mbe_granted:
                    code = uwt[wt_offset + ((mbe >> {line_bits}) & {_lines_per_page(spec) - 1})]
                    if code:
                        mbe_hint = code - 1
                        acc_way_hint_assigned += 1"""


def _feedback(spec: dict) -> str:
    """An unknown way whose conventional access hit: the way tables record
    it through the last-entry register, which holds the group's uTLB slot
    (``feedback_conventional_hit``); the WDU records it for the line
    ``wdu_line`` its prediction took.  The way is the hit slot's
    (:func:`_l1_load_inline`)."""
    wd = spec["way_determination"]
    line_bits = _bits(spec)["line"]
    way = f"l1_slot % {spec['ways']}"
    if wd == "wt" and spec["feedback"]:
        lpp = _lines_per_page(spec)
        return f"""
                    if way_hint is None and l1_slot is not None:
                        acc_feedback += 1
                        lip = (physical_address >> {line_bits}) & {lpp - 1}
{_shift(_record_way(spec, way), 24)}"""
    if wd == "wdu":
        return f"""
                    if way_hint is None and l1_slot is not None:
{_shift(_wdu_record("wdu_line", way, "acc_wdu_update", "acc_wdu_eviction"), 24)}"""
    return ""


def _wdu_predict(spec: dict) -> str:
    """``WayDeterminationUnit.predict`` of ``physical_address``, one
    lookup per access: a known way becomes ``way_hint``."""
    if spec["way_determination"] != "wdu":
        return ""
    text = f"""
acc_wdu_lookup += 1
wdu_line = physical_address >> {_bits(spec)["line"]}
wdu_way = wdu_get(wdu_line)
if wdu_way is not None:
    wdu_touch(wdu_line)
    acc_wdu_known += 1
    way_hint = wdu_way"""
    return _shift(text, 20)


def _tick_malec(spec: dict) -> str:
    """MALEC's tick.  Without a merge scan the arbitration loop enumerates
    no ``position``; without way determination the accesses take no hint,
    so the kernel binds no ``way_hint``; with a WDU the MBE's write takes
    the WDU's way or none (only way tables give ``mbe_hint``)."""
    bits = _bits(spec)
    page_shift = spec["page_shift"]
    page_off_mask = spec["page_off_mask"]
    wd = spec["way_determination"]
    hinted = wd != "none"
    hint = "way_hint" if hinted else "_hint"
    arbitrated = "position, load in enumerate(members)"
    if spec["merge_granularity"] == "none":
        arbitrated = "load in members"
    mbe_hint = {"wt": "\n                        mbe_hint = None", "wdu": "", "none": ""}[wd]
    mbe_way = {"wt": "way_hint = mbe_hint\n", "wdu": "way_hint = None\n", "none": ""}[wd]
    return f"""\
            if store_buffer._committed_count:
{_drain_inline(spec)}
            if mbe_backlog or ib._held or ib._new or ib._mbe is not None:
                if mbe_backlog and ib._mbe is None:
                    # ---- InputBuffer.add_mbe ----
                    ib._mbe = mbe_backlog.popleft()
                    acc_mbe_in += 1
                held = ib._held
                new = ib._new
                mbe = ib._mbe
                # ---- InputBuffer.select_group: the loads are (seq, address,
                # size) tuples, the MBE a line address ----
                if held:
                    page = held[0][1] >> {page_shift}
                elif new:
                    page = new[0][1] >> {page_shift}
                else:
                    page = mbe >> {page_shift}
                members = []
                for load in held:
                    if load[1] >> {page_shift} == page:
                        members.append(load)
                for load in new:
                    if load[1] >> {page_shift} == page:
                        members.append(load)
                compares = len(held) + len(new) - 1
                mbe_member = False
                if mbe is not None:
                    compares += 1
                    mbe_member = mbe >> {page_shift} == page
                if compares:
                    acc_page_compare += compares
                acc_group_selected += 1
                acc_group_size += len(members) + mbe_member
{_translate_group(spec)}
                # ---- ArbitrationUnit.arbitrate: a bank request is
                # [primary load, merged loads, way hint]; the MBE comes last ----
                bank_owner = {{}}
                bank_requests = []
                serviced = []
                loads_granted = 0
                for {arbitrated}:
                    laddr = load[1]
                    bank = (laddr >> {bits['line']}) & {bits['bank_mask']}
                    merged = False{_merge_scan(spec)}
                    if merged:
                        continue
                    if loads_granted >= result_buses:
                        acc_rej_bus += 1
                        continue
                    if bank in bank_owner:
                        acc_rej_bank += 1
                        continue
                    bank_request = [load, [], None]
                    bank_owner[bank] = bank_request
                    bank_requests.append(bank_request)
                    serviced.append(load)
                    loads_granted += 1
                    acc_granted += 1
                mbe_granted = False
                if mbe_member:
                    if ((mbe >> {bits['line']}) & {bits['bank_mask']}) in bank_owner:
                        acc_arb_mbe_conflict += 1
                    else:
                        mbe_granted = True{mbe_hint}{_assign_ways(spec)}
                acc_arb_cycles += 1
                acc_bank_accesses += len(bank_requests) + mbe_granted
                if loads_granted:
                    acc_shared_page += 1
                completions = []
                # ---- per-bank servicing (_service_bank_request) ----
                for (lseq, address, lsize), merged_requests, {hint} in bank_requests:
                    physical_address = (physical_page << {page_shift}) | (address & {page_off_mask})
{_l1_fields(spec, "physical_address", 20)}{_wdu_predict(spec)}
{_forwarding_inline(spec, "address", "lsize", "acc_fwd_split", 20)}
                    for _mseq, maddr, msize in merged_requests:
{_forwarding_inline(spec, "maddr", "msize", "acc_fwd_split", 24)}
{_l1_load_inline(spec, "physical_address", hinted, 20)}
                    acc_load_accesses += 1
                    acc_loads_merged += len(merged_requests){_feedback(spec)}
                    ready_cycle = cycle + translation_latency + latency
                    completions.append((lseq, ready_cycle))
                    for merged_load in merged_requests:
                        completions.append((merged_load[0], ready_cycle))
                if mbe_granted:
                    # ---- the MBE's write, the last bank access ----
                    physical_address = (physical_page << {page_shift}) | (mbe & {page_off_mask})
{_shift(mbe_way, 20)}{_l1_fields(spec, "physical_address", 20)}{_wdu_predict(spec)}
{_l1_store_inline(spec, "physical_address", hinted, 20)}
                    acc_mbe_written += 1
                # ---- InputBuffer.retire + end_cycle ----
                held_count = len(held) + len(new) - len(serviced)
                if held_count:
                    # (a comprehension over gone would make it a cell)
                    gone = set(serviced).__contains__
                    held2 = mk_deque(filterfalse(gone, held))
                    held2.extend(filterfalse(gone, new))
                    ib._held = held2
                else:
                    ib._held = mk_deque()
                ib._new = []
                if mbe_granted:
                    ib._mbe = None
                    acc_mbe_out += 1
                if held_count > held_capacity:
                    acc_ib_overflow += 1
                acc_held_loads += held_count
                acc_end_cycles += 1
                acc_group_cycles += 1
                acc_group_loads += loads_granted
                for tag, ready_cycle in completions:
{_release_and_schedule(20, "tag", "ready_cycle")}
"""


def _loop_tail(spec: dict) -> str:
    """Commit, fetch and the clock jump on :func:`_loop_head`'s window.
    Commit moves ``rob_head`` over at most the commit width of completed
    seqs and counts only stores, which the store buffer must hear of (the
    epilogue counts the rest); fetch dispatches ``min(fetch width, seqs
    left, ROB room)`` seqs in one ``range``."""
    q = _quiescent_expr(spec)
    return f"""
        # 4. Commit in order (commit_store inlined: StoreBuffer.mark_committed;
        # a committing store is the store buffer's oldest uncommitted entry).
        if completed_f[rob_head]:
            last_commit_cycle = cycle
            commit_end = rob_head + commit_width
            while True:
                if kinds[rob_head] == 2:
                    stores += 1
                    store_buffer._committed_count += 1
                    interface_active = True
                rob_head += 1
                if rob_head == commit_end or not completed_f[rob_head]:
                    break

        # 5. Fetch / dispatch: the next seqs join the ROB window.
        if fetch_seq < fetch_end:
            fetch_stop = fetch_seq + fetch_width
            if fetch_stop > fetch_end:
                fetch_stop = fetch_end
            if fetch_stop > rob_head + rob_entries:
                fetch_stop = rob_head + rob_entries
            for seq in range(fetch_seq, fetch_stop):
                if kinds[seq] == 2:
                    store_order.append(seq)
                pending = 0
                producers = producers_of[seq]
                if producers:
                    for producer in producers:
                        if completed_f[producer] or producer < rob_head:
                            continue
                        waiting = consumers[producer]
                        if waiting is None:
                            waiting = consumers[producer] = []
                        waiting.append(seq)
                        pending += 1
                    pending_deps[seq] = pending
                if pending == 0:
                    heappush(ready_heap, seq)
            fetch_seq = fetch_stop

        cycle += 1

        # 6. Re-arm / disarm the interface event (quiescent() inlined).
        if interface_active and ({q}):
            interface_active = False

        # 7. Clock jump to the next wheel event when this cycle was a no-op.
        if (
            not ready_heap
            and not due_next
            and not interface_active
            and wheel_next is not NEVER
            and wheel_next > cycle
            and (fetch_seq >= fetch_end or fetch_seq - rob_head >= rob_entries)
            and rob_head < fetch_end
            and not completed_f[rob_head]
            and (
                not (deferred or parked_count)
                or (
                    not deferred_blocking
                    and not deferred_has_load
                    and (
                        store_order_head >= len(store_order)
                        or not parked[store_order[store_order_head]]
                        or len(sb_entries) >= sb_capacity
                    )
                )
            )
        ):
            fast_forwarded += wheel_next - cycle
            cycle = wheel_next
"""


def _flush_rows(spec: dict) -> list:
    """The batched counters: one ``(guard, pattern, amount)`` row per event.

    When accumulator ``guard`` is non-zero at the end of a run, the epilogue
    adds ``amount * times`` to each ``(name, times)`` pair of ``pattern``
    with :meth:`repro.stats.StatCounters.add_many`.  Wherever the model
    counts an event with a ``_combo_*`` tuple, the row's pattern is that
    tuple, an expression over the run's objects that the epilogue evaluates
    then, so a change to the model's accounting reaches the kernels
    unedited; every other pattern is a literal tuple of counter names.  A
    row whose amount is not its guard carries a counter that the generic
    loop adds, at times by zero, with the guard's event: it is live exactly
    when that event happened.  Guards are expressions over hot
    accumulators and :data:`_COLD` slots, and no count is kept that others
    give: the L1 fills, L2 hits, DRAM reads and writes and the fills' uWT
    records flush from the misses.
    """
    c = _COLD
    fills = f"{c['l1_load_miss']} + {c['l1_store_miss']}"

    def once(*names: str) -> str:
        """A pattern counting each of ``names`` once (no model tuple)."""
        return "(" + ", ".join(f'("{name}", 1)' for name in names) + ",)"

    # (guard, pattern[, amount]): the amount is the guard unless given
    rows = [
        ("acc_load_submit", "interface._combo_load_submit"),
        ("acc_store_submit", once("interface.stores_submitted", "sb.insert")),
        ("acc_utlb_hit", "utlb._combo_hit"),
        # a uTLB miss that hits the TLB refills one uTLB slot
        (c["tlb_hit"], "utlb._combo_miss"),
        (c["tlb_hit"], "tlb._combo_hit"),
        (c["tlb_hit"], once("utlb.fill")),
        (c["tlb_miss"], "utlb._combo_miss"),
        (c["tlb_miss"], "tlb._combo_miss"),
        (c["utlb_eviction"], once("utlb.eviction")),
        ("acc_sb_forward", once("sb.forward_hit")),
        ("acc_mb_forward", once("mb.forward_hit")),
        ("acc_load_accesses", once("interface.load_accesses")),
        ("acc_lq_completed", once("lq.completed")),
        ("acc_lq_completed", once("lq.total_latency"), "acc_lq_latency"),
        ("acc_l1_conv_hit", "bank0._combo_conv_read"),
        ("acc_l1_conv_hit", "l1._combo_load_hit"),
        (c["l1_load_miss"], "bank0._combo_conv_read"),
        (c["l1_load_miss"], "l1._combo_load_miss"),
        (fills, "bank0._combo_fill"),
        (c["l1_evict"], once("l1.eviction")),
        (c["l1_writeback"], once("l1.writeback")),
        # the L2 serves the L1 misses and dirty victims; the rest of those hit
        (f"{fills} + {c['l1_writeback']} - {c['l2_miss']}", "l2._combo_hit"),
        (c["l2_miss"], "l2._combo_miss"),
        (c["l2_miss"], once("dram.read")),
        (c["l2_writeback"], once("l2.writeback", "dram.write")),
        ("acc_sb_drain", once("sb.drain")),
        ("acc_mb_merged", once("mb.merged_store")),
        # every merge-buffer eviction queues its line for the cache
        ("acc_mb_eviction", once("mb.eviction", "interface.mbe_queued")),
        ("acc_mb_allocate", once("mb.allocate")),
        ("acc_mbe_written", once("interface.mbe_written")),
        # a conventional write hit: CacheBank.write_parts and store_parts
        ("acc_store_conv_hit", "bank0._combo_conv_write"),
        ("acc_store_conv_hit", once("l1.data_write")),
        ("acc_store_conv_hit", "l1._combo_store_hit"),
        # a store miss: the conventional write probe, then store_parts' fill
        (c["l1_store_miss"], "bank0._combo_conv_write"),
        (c["l1_store_miss"], "l1._combo_store_miss"),
        (c["l1_store_miss"], once("l1.data_write")),
    ]
    if spec["kind"] != "MALEC":
        rows.append(("acc_fwd_full", "interface._combo_fwd_full"))
    else:
        rows += [
            ("acc_fwd_split", "interface._combo_fwd_split"),
            ("acc_load_accesses", once("interface.loads_merged"), "acc_loads_merged"),
            ("acc_ib_load_in", once("input_buffer.load_in")),
            ("acc_mbe_in", once("input_buffer.mbe_in")),
            ("acc_page_compare", once("input_buffer.page_compare")),
            ("acc_group_selected", once("input_buffer.group_selected")),
            ("acc_group_selected", once("input_buffer.group_size"), "acc_group_size"),
            ("acc_mbe_out", once("input_buffer.mbe_out")),
            ("acc_ib_overflow", once("input_buffer.overflow_cycle")),
            ("acc_end_cycles", once("input_buffer.held_loads"), "acc_held_loads"),
            ("acc_rej_bus", once("arb.rejected_result_bus")),
            ("acc_rej_bank", once("arb.rejected_bank_conflict")),
            ("acc_granted", once("arb.granted_load")),
            ("acc_arb_mbe_conflict", once("arb.mbe_bank_conflict")),
            ("acc_arb_cycles", once("arb.cycles")),
            ("acc_arb_cycles", once("arb.bank_accesses"), "acc_bank_accesses"),
            ("acc_shared_page", once("sb.lookup_page_shared", "mb.lookup_page_shared")),
            ("acc_group_cycles", once("malec.group_cycles")),
            ("acc_group_cycles", once("malec.group_loads"), "acc_group_loads"),
        ]
        if spec["merge_granularity"] != "none":
            rows += [
                ("acc_line_compare", once("arb.line_compare")),
                ("acc_merged_load", once("arb.merged_load")),
            ]
        if spec["way_determination"] != "none":
            # A hinted access (_hinted_probe) is reduced when the hint names
            # the line's way; a wrong hint's load has read that way's data
            # array first.  Every other bank access, load or MBE write, had
            # no hint: its way was unknown.
            reduced = ("acc_l1_reduced_hit", "acc_store_reduced_hit")
            wrong = ("acc_l1_hint_wrong", "acc_store_hint_wrong")
            unknown = " - ".join(("acc_load_accesses + acc_mbe_written",) + reduced + wrong)
            rows += [
                ("acc_l1_reduced_hit", "bank0._combo_reduced_read"),
                ("acc_l1_reduced_hit", "l1._combo_load_hit"),
                ("acc_store_reduced_hit", "bank0._combo_reduced_write"),
                ("acc_store_reduced_hit", "l1._combo_store_hit"),
                ("acc_l1_hint_wrong", "bank0._combo_reduced_read"),
                *((acc, once("l1.way_hint_wrong")) for acc in wrong),
                *((acc, "interface._combo_way_reduced") for acc in reduced),
                *((acc, "interface._combo_way_known") for acc in wrong),
                (unknown, "interface._combo_way_unknown"),
            ]
        if spec["way_determination"] == "wt":
            # a reverse lookup that misses the uTLB probes the TLB
            via_utlb = ("utlb.reverse_lookup", "utlb.reverse_hit")
            via_tlb = ("utlb.reverse_lookup", "utlb.reverse_miss", "tlb.reverse_lookup")
            rows += [
                ("acc_way_hint_assigned", once("arb.way_hint_assigned")),
                ("acc_uwt_read", once("uwt.read")),
                (c["tlb_hit"], once("uwt.entry_transfer")),
                (c["uwt_writeback"], once("wt.entry_transfer", "uwt.writeback")),
                (c["locate_uwt"], once(*via_utlb, "uwt.update")),
                # a fill records its way in the uWT entry of its page
                (fills, once(*via_utlb, "uwt.update")),
                (c["locate_wt"], once(*via_tlb, "tlb.reverse_hit", "wt.update")),
                (
                    c["evict_unmapped"],
                    once(*via_tlb, "tlb.reverse_miss", "way_pred.evict_unmapped"),
                ),
            ]
            if not spec["restrict"]:
                rows.append((c["unencodable"], once("way_pred.unencodable_way")))
            if spec["feedback"]:
                rows.append(("acc_feedback", once("uwt.update", "way_pred.feedback_update")))
        elif spec["way_determination"] == "wdu":
            rows += [
                ("acc_wdu_lookup", once("wdu.lookup", "way_pred.lookup")),
                ("acc_wdu_known", once("way_pred.known")),
                # records come from the hot feedback and the cold fill listener
                ("acc_wdu_update", once("wdu.update")),
                (c["wdu_update"], once("wdu.update")),
                ("acc_wdu_eviction", once("wdu.eviction")),
                (c["wdu_eviction"], once("wdu.eviction")),
                (c["wdu_invalidate"], once("wdu.invalidate")),
            ]
    return [(guard, pattern, rest[0] if rest else guard) for guard, pattern, *rest in rows]


def _epilogue(spec: dict) -> str:
    rows = "\n".join(
        f"        ({guard}, {pattern}, {amount}),"
        for guard, pattern, amount in _flush_rows(spec)
    )
    return f"""
    # ---- run boundary: flush batched accumulators, then finalize ----
    pipeline.fast_forwarded_cycles += fast_forwarded
    for guard, pattern, amount in (
{rows}
    ):
        if guard:
            stats.add_many(pattern, amount)
    total_cycles = last_commit_cycle + 1
    interface.finalize(total_cycles)
    stats.add("pipeline.issued", issued_total)
    stats.add("pipeline.cycles", cycle)
    stats.add("pipeline.dispatched", fetch_seq - first_seq)
    stats.set("pipeline.total_cycles", total_cycles)
    stats.set("pipeline.committed", rob_head - first_seq)
    loads = kinds[first_seq:fetch_end].count(1)
    return PipelineResult(
        cycles=total_cycles,
        instructions=total,
        loads=loads,
        stores=stores,
        computes=total - loads - stores,
    )
"""


def generate_source(spec: dict, content_hash: str = "unhashed") -> str:
    """Emit the kernel module source for ``spec``."""
    if spec["kind"] not in KIND_CLASSES:
        raise ValueError(f"cannot specialize interface kind {spec['kind']!r}")
    return (
        _header(spec, content_hash)
        + _cold_paths(spec)
        + _guards(spec)
        + _prologue(spec)
        + _loop_head(spec)
        + _issue_stage(spec)
        + "\n        # 3. Interface tick: drain + service + completions, fused.\n"
        + "        if interface_active:\n"
        + _tick(spec)
        + _loop_tail(spec)
        + _epilogue(spec)
    )
