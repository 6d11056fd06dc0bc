"""Source generator for specialized simulation kernels (PR 8).

Given a :class:`~repro.sim.config.SimulationConfig`, :func:`build_spec`
extracts every value the hot loop branches on into a flat dict of
primitives, and :func:`generate_source` emits the text of a standalone
Python module whose single entry point::

    kernel_run(pipeline, seqs, total, capacity, trace_arrays) -> PipelineResult

is equivalent to the event-driven pipeline loop of
:meth:`repro.cpu.pipeline.OutOfOrderPipeline._run_event_driven` with the
interface tick, the acceptance checks and the stat accounting *fused in* and
specialized for that one configuration.  Most stages are transcribed from
the generic loop; the issue stage is not.  It does work proportional to what
can issue, and is held to the generic stage by an equivalence argument (see
:func:`_issue_stage`) and by the differential tests, which also compare
every clock jump:

* config-dependent branches are resolved at generation time (interface kind,
  MALEC way determination on/off, merge granularity, TLB/cache geometry,
  buffer depths inlined as literals);
* attribute lookups are hoisted to locals once per run — but only for
  objects the run never rebinds (the generator documents each hoist; e.g.
  ``InputBuffer._held`` is rebound by ``retire`` and is therefore *never*
  hoisted);
* stat bumps are batched into local integer accumulators that flush into
  ``StatCounters`` once at the end of the run, through one table
  (:func:`_flush_rows`) whose counter patterns are the model's own
  ``_combo_*`` tuples wherever it has one.  Sums of integers commute, so
  the flushed totals are bit-identical to per-access bumping.

Bit-identity strategy — *probe, then commit or delegate*: every inlined fast
path starts with side-effect-free probes (dict ``.get`` and list reads).  Only
when the whole probe succeeds does the kernel apply the inline effects;
otherwise it calls the exact original method before having mutated anything,
so the two slow paths left, a page walk and a way-hint mismatch on a load,
run the canonical code and charge the canonical counters.  Taken inline,
on the flat cache, TLB and way-table columns, are:

* every translation but the walk: the uTLB hit and, on a uTLB miss, the TLB
  probe and the uTLB refill with its second-chance victim and, for MALEC's
  way tables, the uWT entry's write-back to the WT and refill from it.  A
  TLB miss calls :meth:`repro.tlb.tlb.TLBHierarchy.walk_page`, which the
  generic loop's translation calls too, so both share the walk and the
  TLB's random replacement draws;
* the store drain (``StoreBuffer.pop_committed``,
  ``MergeBuffer.commit_store`` and ``_queue_writeback``);
* L1 writes: MALEC's MBE write (reduced when its way hint matches),
  Base2ld1st's port write-back and Base1ldst's ``_writeback_to_cache``,
  a miss included, which fills the line dirty;
* the conventional L1 load miss: the L2 access, the L1 fill with the
  evict and fill listeners in the order
  :meth:`repro.cache.cache_bank.CacheBank.fill_parts` calls them, and the
  dirty victim's write-back;
* MALEC's way determination: the way tables' listener updates (through
  reverse TLB lookups) and feedback writes, or the WDU's predictions,
  records and invalidations on its table;
* the L2 miss of either access: the DRAM read, the fill at the set's lowest
  stamp and the dirty L2 victim's DRAM write.

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
swapped the replacement policy, resized a buffer, attached a collector, …)
``kernel_run`` raises ``RuntimeError`` naming the failed check before
touching anything.  There is no silent fallback to the generic loop.
"""

from __future__ import annotations

from repro.cache.l2_cache import L2Cache
from repro.sim.config import InterfaceKind, SimulationConfig

#: bump when the emitted code changes so content hashes (and caches) roll over
GENERATOR_VERSION = 11

#: interface kinds this generator can specialize
KIND_CLASSES = {
    "Base1ldst": "BaselineSingleInterface",
    "Base2ld1st": "BaselineDualLoadInterface",
    "MALEC": "MalecInterface",
}


def build_spec(config: SimulationConfig) -> dict:
    """Flatten ``config`` into the primitive values the generator consumes.

    The spec deliberately excludes ``name`` and ``seed``: two configurations
    differing only in those share one compiled kernel (content-hash cache).
    """
    layout = config.cache.layout
    line_mask = layout._line_offset_mask
    spec = {
        "generator": GENERATOR_VERSION,
        "kind": config.interface.value,
        "class_name": KIND_CLASSES[config.interface.value],
        "rob": config.pipeline.rob_entries,
        "fetch": config.pipeline.fetch_width,
        "issue": config.pipeline.issue_width,
        "commit": config.pipeline.commit_width,
        "lq": config.lq_entries,
        "sb": config.sb_entries,
        "mb_entries": config.mb_entries,
        "hit_latency": config.cache.l1_hit_latency,
        "l2_latency": config.cache.l2_latency,
        "dram_latency": config.cache.dram_latency,
        # the Simulator's rule for MemoryHierarchy(restrict_way_allocation=)
        "restrict": (
            config.interface is InterfaceKind.MALEC
            and config.malec_options.way_determination == "wt"
            and config.malec_options.restrict_way_allocation
        ),
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
            result_buses=malec.result_buses,
            merge_window=malec.merge_window,
            merge_granularity=malec.merge_granularity,
            held_capacity=malec.input_buffer_capacity,
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
    extra = ""
    if kind != "MALEC":
        extra = "from repro.interfaces.base import PendingWriteback\n"
    return (
        f'"""Specialized {kind} simulation kernel '
        f"(repro.sim.kernels generator v{spec['generator']}).\n"
        f"\n"
        f"Auto-generated for configuration content hash {content_hash}; do not\n"
        f"edit.  Dump via `repro report --kernel-source CONFIG` or\n"
        f"`repro.sim.kernels.kernel_source(config)`.\n"
        f'"""\n'
        f"\n"
        f"import heapq\n"
        f"from collections import deque\n"
        f"\n"
        f"from repro.cpu.pipeline import PipelineResult\n"
        f"{extra}"
        f"\n"
        f"\n"
        f"def kernel_run(pipeline, seqs, total, capacity, trace_arrays):\n"
    )


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
        _check(f'type(interface).__name__ != "{spec["class_name"]}"'),
        _check("interface.stats is not stats"),
        _check(f"params.rob_entries != {spec['rob']}"),
        _check(f"params.fetch_width != {spec['fetch']}"),
        _check(f"params.issue_width != {spec['issue']}"),
        _check(f"params.commit_width != {spec['commit']}"),
        "    layout = interface.layout",
        _check(f"layout.page_offset_bits != {spec['page_shift']}"),
        _check(f"layout._page_offset_mask != {spec['page_off_mask']}"),
        _check(f"layout._line_offset_mask != {spec['line_mask']}"),
        _check(f"layout.l1_banks != {spec['nbanks']}"),
        "    load_queue = interface.load_queue",
        "    store_buffer = interface.store_buffer",
        "    merge_buffer = interface.merge_buffer",
        _check(f"load_queue.entries != {spec['lq']}"),
        _check(f"store_buffer.entries != {spec['sb']}"),
        _check(f"merge_buffer.entries != {spec['mb_entries']}"),
        "    l1 = interface.hierarchy.l1",
        "    banks = l1.banks",
        _check(f"l1.hit_latency != {spec['hit_latency']}"),
        _check(f"len(banks) != {spec['nbanks']}"),
        "    bank0 = banks[0]",
        _check(f"bank0.array.num_sets != {spec['sets']}"),
        _check(f"bank0.array.ways != {spec['ways']}"),
        _check(f"bank0.restrict_way_allocation != {spec['restrict']}"),
        "    l2 = l1.l2",
        _check(f"l2.latency_cycles != {spec['l2_latency']}"),
        _check(f"l2.array.num_sets != {l2_sets}"),
        _check(f"l2.array.ways != {l2_ways}"),
        _check(f"l2.dram.latency_cycles != {spec['dram_latency']}"),
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
            _check(f"ib.held_capacity != {spec['held_capacity']}"),
            _check(f"arbitration.result_buses != {spec['result_buses']}"),
            _check(f"arbitration.merge_window != {spec['merge_window']}"),
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
    kind = spec["kind"]
    bits = _bits(spec)
    lines = [
        "",
        "    # ---- hoisted structures (stable objects only: these attribute",
        "    # slots are mutated in place but never rebound during a run) ----",
        "    utlb_by_vpage = utlb._by_vpage",
        "    utlb_by_vpage_get = utlb_by_vpage.get",
        "    utlb_by_ppage = utlb._by_ppage",
        "    utlb_vpages = utlb._vpages",
        "    utlb_ppages = utlb._ppages",
        "    utlb_referenced = utlb._referenced",
        "    utlb_entries = utlb.entries",
        "    tlb_by_vpage_get = tlb._by_vpage.get",
        "    tlb_ppages = tlb._ppages",
        "    walk_page = translation.walk_page",
        "    walk_latency = translation.walk_latency",
        "    lq_entries = load_queue._entries",
        "    sb_entries = store_buffer._entries",
        "    mb_lines = merge_buffer._entries",
        "    bank_slot_of = [bank.array._slot_of for bank in banks]",
        "    bank_tags = [bank.array._tags for bank in banks]",
        "    bank_dirty = [bank.array._dirty for bank in banks]",
        "    bank_stamps = [bank.array._stamps for bank in banks]",
        "    bank_tick = [bank.array._tick for bank in banks]",
        "    max_address = layout.max_address",
        "    l2_slot_of = l2.array._slot_of",
        "    l2_slot_of_get = l2_slot_of.get",
        "    l2_tags = l2.array._tags",
        "    l2_dirty = l2.array._dirty",
        "    l2_stamps = l2.array._stamps",
        "    l2_tick = l2.array._tick",
        "    dram = l2.dram",
        "    dram_check = dram._check",
        "    # DRAMModel._check raises at or past this address",
        "    dram_limit = min(dram.CAPACITY_BYTES, max_address + 1)",
        "    pending_writebacks = interface._pending_writebacks",
    ]
    if kind in ("Base1ldst", "Base2ld1st"):
        lines.append("    pending_loads = interface._pending_loads")
    if kind == "MALEC":
        lines += [
            "    load_parts = l1.load_parts",
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
            lines += [
                "    uwt = way_tables.uwt",
                "    wt = way_tables.wt",
                "    utlb_by_ppage_get = utlb_by_ppage.get",
                "    tlb_by_ppage_get = tlb._by_ppage.get",
            ]
        elif wd == "wdu":
            lines += [
                "    wdu_table = wdu._table",
                "    wdu_get = wdu_table.get",
                "    wdu_touch = wdu_table.move_to_end",
                "    wdu_capacity = wdu.entries",
            ]
    # every accumulator the flush table names
    names = [name for guard, _, amount in _flush_rows(spec) for name in (guard, amount)]
    accs = list(dict.fromkeys(names))
    lines += ["", "    # ---- batched accumulators, flushed at the run boundary ----"]
    for i in range(0, len(accs), 4):
        lines.append("    " + " = ".join(accs[i : i + 4]) + " = 0")
    return "\n".join(lines) + "\n"


def _loop_head(spec: dict) -> str:
    q = _quiescent_expr(spec)
    return f"""
    # ---- event-driven loop state (as in _run_event_driven, except that
    # deferred holds only loads and refused stores are parked) ----
    max_cycles = pipeline.max_cycles or (200 * total + 100000)
    heappush = heapq.heappush
    heappop = heapq.heappop
    # Single-component EventWheel, inlined: per-cycle buckets + a min-heap
    # with one entry per distinct bucket cycle (see repro.sim.events).
    wheel_buckets = {{}}
    wheel_buckets_get = wheel_buckets.get
    wheel_buckets_pop = wheel_buckets.pop
    wheel_heap = []
    NEVER = float("inf")
    wheel_next = NEVER
    next_fetch = 0
    committed = 0
    cycle = 0
    last_commit_cycle = 0
    rob_q = deque()
    rob_len = 0
    in_rob = bytearray(capacity)
    issued_f = bytearray(capacity)
    completed_f = bytearray(capacity)
    produced = bytearray(capacity)
    pending_deps = [0] * capacity
    kinds, addresses, sizes, producers_of = trace_arrays
    consumers = [None] * capacity
    ready_fifo = deque()
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
    loads = stores = computes = 0
    cycles_counted = 0
    issued_total = 0
    dispatched_total = 0
    fast_forwarded = 0
    interface_active = not ({q})

    while committed < total:
        if cycle > max_cycles:
            raise RuntimeError(
                "pipeline exceeded %d cycles; likely deadlock (%d/%d committed)"
                % (max_cycles, committed, total)
            )

        # 1. Retire completions scheduled for this cycle.
        if due_next:
            due_now = due_next
            due_next = []
            for seq in due_now:
                if completed_f[seq]:
                    continue
                completed_f[seq] = 1
                produced[seq] = 1
                waiting = consumers[seq]
                if waiting is not None:
                    consumers[seq] = None
                    for consumer in waiting:
                        left = pending_deps[consumer] - 1
                        pending_deps[consumer] = left
                        if left == 0 and not issued_f[consumer]:
                            heappush(ready_heap, consumer)
        if wheel_next <= cycle:
            while wheel_heap and wheel_heap[0] <= cycle:
                for seq in wheel_buckets_pop(heappop(wheel_heap)):
                    if completed_f[seq]:
                        continue
                    completed_f[seq] = 1
                    produced[seq] = 1
                    waiting = consumers[seq]
                    if waiting is not None:
                        consumers[seq] = None
                        for consumer in waiting:
                            left = pending_deps[consumer] - 1
                            pending_deps[consumer] = left
                            if left == 0 and not issued_f[consumer]:
                                heappush(ready_heap, consumer)
            wheel_next = wheel_heap[0] if wheel_heap else NEVER
"""


def _issue_stage(spec: dict) -> str:
    """The issue stage, equivalent to the generic one but never re-examining
    a memory op that cannot issue.

    The generic stage merges its deferred list, the dispatch FIFO and the
    wake heap by seq and pops every refused memory op again each cycle.
    Two facts make most of those pops no-ops:

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
    width = spec["issue"]
    return f"""
        # 2. Issue ready instructions (oldest first, up to issue width).
        s_store = NEVER
        if parked_count:
            head_store = store_order[store_order_head]
            if parked[head_store]:
                s_store = head_store
        if ready_fifo or ready_heap or deferred or s_store is not NEVER:
            loads_used = stores_used = flex_used = 0
            issued = 0
            postponed = []
            postponed_load = False
            loads_blocked = False
            di = 0
            dn = dlen = len(deferred)
            simple = not dn and not ready_heap and s_store is NEVER
            while issued < {width}:
                if simple:
                    if not ready_fifo:
                        break
                    seq = ready_fifo.popleft()
                else:
                    s_def = deferred[di] if di < dn else NEVER
                    s_fifo = ready_fifo[0] if ready_fifo else NEVER
                    s_heap = ready_heap[0] if ready_heap else NEVER
                    if s_store < s_def and s_store < s_fifo and s_store < s_heap:
                        seq = s_store
                        s_store = NEVER
                        parked[seq] = 0
                        parked_count -= 1
                    elif s_def <= s_fifo:
                        if s_def <= s_heap:
                            if s_def is NEVER:
                                break
                            seq = s_def
                            di += 1
                        else:
                            seq = heappop(ready_heap)
                    elif s_fifo <= s_heap:
                        seq = ready_fifo.popleft()
                    else:
                        seq = heappop(ready_heap)
                if not in_rob[seq] or issued_f[seq]:
                    continue
                kind = kinds[seq]
                if kind == 0:  # compute: completes next cycle
                    issued_f[seq] = 1
                    due_next.append(seq)
                    issued += 1
                elif kind == 1:  # load
{_issue_load(spec)}
                else:  # store
{_issue_store(spec)}
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
            deferred_blocking = issued == {width} and bool(
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
    kind = spec["kind"]
    if kind == "Base1ldst":
        accept = (
            f"not loads_blocked\n"
            f"                        and flex_used == 0\n"
            f"                        and len(lq_entries) < {spec['lq']}\n"
            f"                        and len(pending_loads) < 4"
        )
        consume = "flex_used = 1"
    elif kind == "Base2ld1st":
        accept = (
            f"not loads_blocked\n"
            f"                        and loads_used < 2\n"
            f"                        and len(lq_entries) < {spec['lq']}\n"
            f"                        and len(pending_loads) < 4"
        )
        consume = "loads_used += 1"
    else:  # MALEC: dedicated slot first, then flexible (reserve_load_slot)
        return f"""\
                    accepted = False
                    if (
                        not loads_blocked
                        and len(lq_entries) < {spec['lq']}
                        and len(ib._held) < {spec['held_capacity'] + 1}
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
                        issued += 1
                    else:
                        loads_blocked = True
                        dn = di
                        postponed.append(seq)
                        postponed_load = True"""
    return f"""\
                    if (
                        {accept}
                    ):
                        {consume}
                        issued_f[seq] = 1
                        lq_entries[seq] = cycle
                        acc_load_submit += 1
                        pending_loads.append((seq, addresses[seq], sizes[seq]))
                        interface_active = True
                        issued += 1
                    else:
                        loads_blocked = True
                        dn = di
                        postponed.append(seq)
                        postponed_load = True"""


def _issue_store(spec: dict) -> str:
    kind = spec["kind"]
    if kind == "Base1ldst":
        slot_check = "flex_used == 0"
        consume = "flex_used = 1"
    elif kind == "Base2ld1st":
        slot_check = "stores_used < 1"
        consume = "stores_used += 1"
    else:
        slot_check = "flex_used < 2"
        consume = "flex_used += 1"
    if kind == "MALEC":
        probe = ""  # MALEC does not translate at store submission
    else:
        # _on_store_submitted: translate_pair, its result unused
        probe = f"""
                        vpage = address >> {spec['page_shift']}
{_translate_inline(spec, "vpage", 24, check="address")}"""
    # An unissued store lies at or past store_order_head: the index is in range.
    return f"""\
                    if (
                        store_order[store_order_head] == seq
                        and len(sb_entries) < {spec['sb']}
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
# are written indent-relative and shifted with _shift().
def _shift(text: str, spaces: int) -> str:
    pad = " " * spaces
    return "\n".join(pad + line if line.strip() else line for line in text.split("\n"))


def _utlb_miss(spec: dict, page: str, indent: int) -> str:
    """A uTLB miss of ``TLBHierarchy.translate_page_pair`` on the flat TLB
    columns.  A TLB hit refills the uTLB as ``TLB.insert`` does: the
    second-chance victim of ``TLB._victim``, the slot's pages and dicts
    and, with way tables, ``WayTableHierarchy._on_utlb_replacement``'s
    write-back of the victim's uWT entry to the WT and the refill from the
    WT (two slice copies).  A TLB miss calls ``walk_page``, the one call
    that leaves the kernel.

    Sets ``physical_page`` and ``translation_latency``; with way tables
    also ``slot``, the page's uTLB slot.  (The refill counts its uTLB fill
    and uWT transfer with the TLB hit: see :func:`_flush_rows`.)
    """
    lpp = _lines_per_page(spec)
    reprobe = transfer = ""
    if spec.get("way_determination") == "wt":
        reprobe = f"\n    slot = utlb_by_vpage_get({page})"
        transfer = f"""
        wt_slot = tlb_by_ppage_get(old_ppage)
        if wt_slot is not None:
            wt[wt_slot * {lpp} : wt_slot * {lpp} + {lpp}] = uwt[slot * {lpp} : slot * {lpp} + {lpp}]
            acc_uwt_writeback += 1
    uwt[slot * {lpp} : slot * {lpp} + {lpp}] = wt[tlb_slot * {lpp} : tlb_slot * {lpp} + {lpp}]
    if way_tables._last_uwt_slot == slot:
        way_tables._last_uwt_slot = None"""
    text = f"""\
tlb_slot = tlb_by_vpage_get({page})
if tlb_slot is None:
    acc_tlb_miss += 1
    physical_page = walk_page({page})
    translation_latency = walk_latency{reprobe}
else:
    acc_tlb_hit += 1
    physical_page = tlb_ppages[tlb_slot]
    translation_latency = 1
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
        acc_utlb_eviction += 1
        del utlb_by_vpage[utlb_vpages[slot]]
        del utlb_by_ppage[old_ppage]{transfer}
    utlb_vpages[slot] = {page}
    utlb_ppages[slot] = physical_page
    utlb_by_vpage[{page}] = slot
    utlb_by_ppage[physical_page] = slot
    utlb_referenced[slot] = 1"""
    return _shift(text, indent)


def _translate_inline(spec: dict, page: str, indent: int, check: str = "") -> str:
    """``TLBHierarchy.translate_page_pair`` of the page id ``page``: a uTLB
    hit, else :func:`_utlb_miss`; sets ``physical_page`` and
    ``translation_latency``.  ``check`` names the address whose range
    check (``layout.page_id``'s) a miss runs first; a hit implies it, as
    only walked pages are resident."""
    miss = ""
    if check:
        miss = f"\n    if {check} > max_address:\n        layout.check({check})"
    text = f"""\
slot = utlb_by_vpage_get({page})
if slot is not None:
    acc_utlb_hit += 1
    utlb_referenced[slot] = 1
    physical_page = utlb_ppages[slot]
    translation_latency = 0
else:{miss}
{_utlb_miss(spec, page, 4)}"""
    return _shift(text, indent)


def _translate_pair_inline(spec: dict, addr: str, indent: int) -> str:
    """``TLBHierarchy.translate_pair`` of ``addr``: sets ``physical`` and
    ``translation_latency``."""
    text = f"""\
vpage = {addr} >> {spec['page_shift']}
{_translate_inline(spec, "vpage", 0, check=addr)}
physical = (physical_page << {spec['page_shift']}) | ({addr} & {spec['page_off_mask']})"""
    return _shift(text, indent)


def _drain_inline(spec: dict, indent: int) -> str:
    """``BaseL1Interface._drain_committed_stores`` on the canonical containers:
    ``StoreBuffer.pop_committed`` (entry 0: the committed stores are the
    oldest), ``MergeBuffer.commit_store`` with ``line_address``'s range
    check, and the kind's ``_queue_writeback`` of an evicted line."""
    if spec["kind"] == "MALEC":
        queue = "mbe_backlog.append(evicted)"
    else:
        queue = "pending_writebacks.append(PendingWriteback(evicted))"
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
    if len(mb_lines) >= {spec['mb_entries']}:
        evicted = mb_lines.pop(0)
        acc_mb_eviction += 1
        {queue}
    mb_lines.append(dline)
    acc_mb_allocate += 1"""
    return _shift(text, indent)


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


def _l1_conventional_inline(spec: dict, phys: str, indent: int) -> str:
    """The baselines' conventional (no way hint) L1 load probe, miss path
    included.  Sets ``latency``, the only result the baselines read."""
    text = f"""\
{_l1_fields(spec, phys, 0)}
l1_slot = bank_slot_of[pbank].get(ptag * {spec['sets']} + set_index)
if l1_slot is not None:
    bank_stamps[pbank][l1_slot] = next(bank_tick[pbank])
    acc_l1_conv_hit += 1
    latency = {spec['hit_latency']}
else:
{_l1_miss_inline(spec, phys, 4)}"""
    return _shift(text, indent)


def _l2_miss_inline(spec: dict, addr: str, line: str, dirty: int, indent: int) -> str:
    """``L2Cache.access``'s miss on the flat columns: the DRAM read, the fill
    at the lowest of the set's stamps (``dirty`` for a write-back), and a
    dirty victim's DRAM write at its own line address.

    The two ``dram.*`` names are interned at their first event of a run, as
    ``DRAMModel`` interns them, so the stats key order matches the generic
    loop's; the counts flush at the end of the run."""
    sets, ways = _l2_geometry(spec)
    set_bits = sets.bit_length() - 1
    text = f"""\
if {addr} >= dram_limit:
    dram_check({addr})
acc_l2_miss += 1
if not acc_dram_read:
    stats.handle("dram.read")
acc_dram_read += 1
l2_set = {line} & {sets - 1}
l2_base = l2_set * {ways}
l2_window = l2_stamps[l2_base : l2_base + {ways}]
l2_fill = l2_base + l2_window.index(min(l2_window))
l2_victim = l2_tags[l2_fill]
l2_victim_dirty = l2_dirty[l2_fill]
if l2_victim != -1:
    del l2_slot_of[(l2_victim << {set_bits}) | l2_set]
l2_tags[l2_fill] = {line} >> {set_bits}
l2_dirty[l2_fill] = {dirty}
l2_stamps[l2_fill] = next(l2_tick)
l2_slot_of[{line}] = l2_fill
if l2_victim_dirty:
    acc_l2_writeback += 1
    l2_victim = ((l2_victim << {set_bits}) | l2_set) << {_bits(spec)['line']}
    if l2_victim >= dram_limit:
        dram_check(l2_victim)
    if not acc_dram_write:
        stats.handle("dram.write")
    acc_dram_write += 1"""
    return _shift(text, indent)


def _l2_access_inline(spec: dict, addr: str, line: str, write: bool, indent: int) -> str:
    """``L2Cache.access`` for the line number ``line`` of ``addr``.  With a
    power-of-two set count the L2's ``_slot_of`` key ``tag * sets + set`` is
    the line number itself.  A read sets ``latency`` (L1 hit time included);
    a write-back marks the line dirty."""
    hit = spec["hit_latency"] + spec["l2_latency"]
    if write:
        on_hit, on_miss = "l2_dirty[l2_slot] = 1", ""
    else:
        on_hit = f"latency = {hit}"
        on_miss = f"\n    latency = {hit + spec['dram_latency']}"
    text = f"""\
l2_slot = l2_slot_of_get({line})
if l2_slot is not None:
    l2_stamps[l2_slot] = next(l2_tick)
    acc_l2_hit += 1
    {on_hit}
else:
{_l2_miss_inline(spec, addr, line, int(write), 4)}{on_miss}"""
    return _shift(text, indent)


def _evict_listener(spec: dict) -> str:
    """The L1 evict listener on ``vline``, the victim's line number: the WDU
    drops the line; the way tables clear its code in its page's entry,
    found by reverse lookups, the uWT's before the WT's
    (``WayTableHierarchy._locate``)."""
    wd = spec.get("way_determination")
    if wd == "wdu":
        return """
if vline in wdu_table:
    del wdu_table[vline]
    if not acc_wdu_invalidate:
        stats.handle("wdu.invalidate")
    acc_wdu_invalidate += 1"""
    if wd != "wt":
        return ""
    lpp = _lines_per_page(spec)
    return f"""
victim_page = vline >> {(lpp - 1).bit_length()}
victim_slot = utlb_by_ppage_get(victim_page)
if victim_slot is not None:
    acc_locate_uwt += 1
    uwt[victim_slot * {lpp} + (vline & {lpp - 1})] = 0
else:
    victim_slot = tlb_by_ppage_get(victim_page)
    if victim_slot is None:
        acc_evict_unmapped += 1
    else:
        acc_locate_wt += 1
        wt[victim_slot * {lpp} + (vline & {lpp - 1})] = 0"""


def _record_way(spec: dict, way: str) -> str:
    """``WayTableHierarchy._record`` of ``way`` for the line ``lip`` of the
    group's uWT entry: the way plus one, or unknown (0) for the line's
    excluded way.  A restricted fill never takes that way (see
    :func:`_l1_miss_inline`), so no resident line is in it and a
    restricted kernel skips the test; an unrestricted one leaves its
    outcome in ``excluded``."""
    if spec["restrict"]:
        return f"uwt[wt_offset + lip] = {way} + 1"
    return f"""excluded = {way} == (lip // {spec['nbanks']}) % {spec['ways']}
uwt[wt_offset + lip] = 0 if excluded else {way} + 1"""


def _fill_listener(spec: dict) -> str:
    """The L1 fill listener on ``pline``, the filled line's number: the WDU
    records its way; the way tables record it in the uWT at ``wt_offset``.
    A kernel fills only lines of the group's page, which the group's
    translation left in the uTLB, so the reverse lookup finds that slot."""
    wd = spec.get("way_determination")
    if wd == "wdu":
        return "\n" + _wdu_record("pline", "fill_way")
    if wd != "wt":
        return ""
    lpp = _lines_per_page(spec)
    text = f"""
acc_locate_uwt += 1
lip = pline & {lpp - 1}
{_record_way(spec, "fill_way")}"""
    if not spec["restrict"]:
        text += "\nif excluded:\n    acc_unencodable += 1"
    return text


def _wdu_record(line: str, way: str) -> str:
    """``WayDeterminationUnit.record`` of ``way`` for the line number
    ``line``, LRU eviction included."""
    return f"""\
if not acc_wdu_update:
    stats.handle("wdu.update")
acc_wdu_update += 1
if {line} in wdu_table:
    wdu_table[{line}] = {way}
    wdu_touch({line})
else:
    if len(wdu_table) >= wdu_capacity:
        wdu_table.popitem(last=False)
        if not acc_wdu_eviction:
            stats.handle("wdu.eviction")
        acc_wdu_eviction += 1
    wdu_table[{line}] = {way}"""


def _l1_miss_inline(spec: dict, phys: str, indent: int, store: bool = False) -> str:
    """The conventional miss of ``L1DataCache.load_parts`` (a ``store``:
    of ``store_parts``, whose fill is dirty) on the flat columns: the L2
    access, then the fill of ``CacheBank.fill_parts`` with its evict and
    fill listeners, then the dirty victim's write-back to the L2.

    Expects ``pbank``, ``set_index`` and ``ptag`` of ``phys``, which missed
    the L1; sets ``latency`` (which a store does not read).
    """
    bits = _bits(spec)
    line_bits = bits["line"]
    ways = spec["ways"]
    exclude = ""
    if spec["restrict"]:
        # CacheBank.excluded_way_for: (line_in_page // banks) % ways
        exclude = (
            f"\nwindow[((pline & {_lines_per_page(spec) - 1}) // {spec['nbanks']}) % {ways}]"
            " = NEVER"
        )
    bank_shift = bits["set_shift"] - line_bits
    victim_tag_shift = bits["tag_shift"] - line_bits
    text = f"""\
{"acc_store_miss" if store else "acc_l1_conv_miss"} += 1
pline = {phys} >> {line_bits}
{_l2_access_inline(spec, phys, "pline", False, 0)}
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
dirty_bits[fill_slot] = {int(store)}
stamps[fill_slot] = next(bank_tick[pbank])
slot_of[ptag * {spec['sets']} + set_index] = fill_slot
if victim_tag != -1:
    vline = (victim_tag << {victim_tag_shift}) | (set_index << {bank_shift}) | pbank
    victim = vline << {line_bits}
    if victim > max_address:
        layout.check(victim)
    acc_l1_evict += 1
    if victim_dirty:
        acc_l1_writeback += 1{_shift(_evict_listener(spec), 4)}
acc_l1_fill += 1{_fill_listener(spec)}
if victim_dirty:
{_l2_access_inline(spec, "victim", "vline", True, 4)}"""
    return _shift(text, indent)


def _l1_store_inline(spec: dict, phys: str, hinted: bool, indent: int) -> str:
    """``L1DataCache.store_parts`` on the flat columns: probe the hinted
    slot (``hinted``: a reduced write when it holds the line; else the hint
    was wrong), then the conventional lookup.  A hit marks the slot dirty
    and stamps it; a miss fills the line dirty (:func:`_l1_miss_inline`).

    Expects ``pbank``, ``set_index`` and ``ptag`` of ``phys``; with
    ``hinted``, also ``way_hint``, and sets ``reduced``.
    """
    sets, ways = spec["sets"], spec["ways"]
    conventional = f"""\
l1_slot = bank_slot_of[pbank].get(ptag * {sets} + set_index)
if l1_slot is not None:
    bank_dirty[pbank][l1_slot] = 1
    bank_stamps[pbank][l1_slot] = next(bank_tick[pbank])
    acc_store_conv_hit += 1
else:
{_l1_miss_inline(spec, phys, 4, store=True)}"""
    if not hinted:
        return _shift(conventional, indent)
    text = f"""\
reduced = False
if way_hint is not None and bank_tags[pbank][set_index * {ways} + way_hint] == ptag:
    l1_slot = set_index * {ways} + way_hint
    bank_dirty[pbank][l1_slot] = 1
    bank_stamps[pbank][l1_slot] = next(bank_tick[pbank])
    acc_store_reduced_hit += 1
    reduced = True
else:
    if way_hint is not None:
        acc_way_hint_wrong += 1
{_shift(conventional, 4)}"""
    return _shift(text, indent)


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
if 0 <= {tag} < capacity and in_rob[{tag}] and not completed_f[{tag}]:
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
    kind = spec["kind"]
    if kind == "Base1ldst":
        return _tick_1ldst(spec)
    if kind == "Base2ld1st":
        return _tick_2ld1st(spec)
    return _tick_malec(spec)


def _tick_1ldst(spec: dict) -> str:
    return f"""\
            if store_buffer._committed_count:
{_drain_inline(spec, 16)}
            if pending_loads:
                tag, address, size = pending_loads.popleft()
{_translate_pair_inline(spec, "address", 16)}
{_forwarding_inline(spec, "address", "size", "acc_fwd_full", 16)}
{_l1_conventional_inline(spec, "physical", 16)}
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
{_drain_inline(spec, 16)}
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
{_l1_conventional_inline(spec, "physical", 20)}
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
                    if position <= {spec['merge_window']}:
                        merge_key = laddr >> {shift}
                        for owner in bank_owner.values():
                            acc_line_compare += 1
                            if owner[0][1] >> {shift} == merge_key:
                                if loads_granted >= {spec['result_buses']}:
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
    text = "                # ---- translate_page_pair ----\n" + _translate_inline(
        spec, "page", 16
    )
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


def _way_acct(spec: dict, indent: int) -> str:
    if spec["way_determination"] == "none":
        return ""
    text = """\
if way_hint is None:
    acc_way_unknown += 1
elif reduced:
    acc_way_reduced += 1
else:
    acc_way_known += 1"""
    return "\n" + _shift(text, indent)


def _feedback(spec: dict) -> str:
    """An unknown way whose conventional access hit: the way tables record
    it through the last-entry register, which holds the group's uTLB slot
    (``feedback_conventional_hit``); the WDU records it."""
    wd = spec["way_determination"]
    line_bits = _bits(spec)["line"]
    if wd == "wt" and spec["feedback"]:
        lpp = _lines_per_page(spec)
        record = _record_way(spec, "l1_way")
        return f"""
                    if way_hint is None and l1_hit:
                        acc_feedback += 1
                        lip = (physical_address >> {line_bits}) & {lpp - 1}
{_shift(record, 24)}"""
    if wd == "wdu":
        return f"""
                    if way_hint is None and l1_hit:
                        wdu_line = physical_address >> {line_bits}
{_shift(_wdu_record("wdu_line", "l1_way"), 24)}"""
    return ""


def _wdu_predict(spec: dict, indent: int) -> str:
    """``WayDeterminationUnit.predict`` of ``physical_address``, one
    lookup per access: a known way becomes ``way_hint``."""
    if spec["way_determination"] != "wdu":
        return ""
    text = f"""
if not acc_wdu_lookup:
    stats.handle("wdu.lookup")
    stats.handle("way_pred.lookup")
acc_wdu_lookup += 1
wdu_line = physical_address >> {_bits(spec)["line"]}
wdu_way = wdu_get(wdu_line)
if wdu_way is not None:
    wdu_touch(wdu_line)
    if not acc_wdu_known:
        stats.handle("way_pred.known")
    acc_wdu_known += 1
    way_hint = wdu_way"""
    return _shift(text, indent)


def _tick_malec(spec: dict) -> str:
    bits = _bits(spec)
    page_shift = spec["page_shift"]
    page_off_mask = spec["page_off_mask"]
    return f"""\
            if store_buffer._committed_count:
{_drain_inline(spec, 16)}
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
                for position, load in enumerate(members):
                    laddr = load[1]
                    bank = (laddr >> {bits['line']}) & {bits['bank_mask']}
                    merged = False{_merge_scan(spec)}
                    if merged:
                        continue
                    if loads_granted >= {spec['result_buses']}:
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
                        mbe_granted = True
                        mbe_hint = None{_assign_ways(spec)}
                acc_arb_cycles += 1
                acc_bank_accesses += len(bank_requests) + mbe_granted
                if loads_granted:
                    acc_shared_page += 1
                completions = []
                # ---- per-bank servicing (_service_bank_request) ----
                for (lseq, address, lsize), merged_requests, way_hint in bank_requests:
                    physical_address = (
                        physical_page << {page_shift}
                    ) | (address & {page_off_mask})
{_l1_fields(spec, "physical_address", 20)}{_wdu_predict(spec, 20)}
{_forwarding_inline(spec, "address", "lsize", "acc_fwd_split", 20)}
                    for _mseq, maddr, msize in merged_requests:
{_forwarding_inline(spec, "maddr", "msize", "acc_fwd_split", 24)}
                    # ---- L1 load: reduced probe (a miss delegates), conventional access
                    if way_hint is not None:
                        l1_slot = set_index * {spec['ways']} + way_hint
                        if bank_tags[pbank][l1_slot] == ptag:
                            bank_stamps[pbank][l1_slot] = next(bank_tick[pbank])
                            acc_l1_reduced_hit += 1
                            l1_hit = True
                            l1_way = way_hint
                            reduced = True
                            latency = {spec['hit_latency']}
                        else:
                            l1_hit, l1_way, latency, reduced, _b, _w = load_parts(
                                physical_address, way_hint=way_hint
                            )
                    else:
                        l1_slot = bank_slot_of[pbank].get(ptag * {spec['sets']} + set_index)
                        if l1_slot is not None:
                            bank_stamps[pbank][l1_slot] = next(bank_tick[pbank])
                            l1_way = l1_slot % {spec['ways']}
                            acc_l1_conv_hit += 1
                            l1_hit = True
                            reduced = False
                            latency = {spec['hit_latency']}
                        else:
{_l1_miss_inline(spec, "physical_address", 28)}
                            l1_hit = reduced = False
                    acc_load_accesses += 1
                    acc_loads_merged += len(merged_requests){_way_acct(spec, 20)}{_feedback(spec)}
                    ready_cycle = cycle + translation_latency + latency
                    completions.append((lseq, ready_cycle))
                    for merged_load in merged_requests:
                        completions.append((merged_load[0], ready_cycle))
                if mbe_granted:
                    # ---- the MBE's write, the last bank access ----
                    physical_address = (
                        physical_page << {page_shift}
                    ) | (mbe & {page_off_mask})
                    way_hint = mbe_hint
{_l1_fields(spec, "physical_address", 20)}{_wdu_predict(spec, 20)}
{_l1_store_inline(spec, "physical_address", spec["way_determination"] != "none", 20)}
                    acc_mbe_written += 1{_way_acct(spec, 20)}
                # ---- InputBuffer.retire + end_cycle ----
                held_count = len(held) + len(new) - len(serviced)
                if held_count:
                    gone = set(serviced)
                    held2 = mk_deque([load for load in held if load not in gone])
                    held2.extend([load for load in new if load not in gone])
                    ib._held = held2
                else:
                    ib._held = mk_deque()
                ib._new = []
                if mbe_granted:
                    ib._mbe = None
                    acc_mbe_out += 1
                if held_count > {spec['held_capacity']}:
                    acc_ib_overflow += 1
                acc_held_loads += held_count
                acc_end_cycles += 1
                acc_group_cycles += 1
                acc_group_loads += loads_granted
                for tag, ready_cycle in completions:
{_release_and_schedule(20, "tag", "ready_cycle")}
"""


def _loop_tail(spec: dict) -> str:
    q = _quiescent_expr(spec)
    return f"""
        # 4. Commit in order (commit_store inlined: StoreBuffer.mark_committed;
        # a committing store is the store buffer's oldest uncommitted entry).
        if rob_q and completed_f[rob_q[0]]:
            commits = 0
            while commits < {spec['commit']} and rob_q and completed_f[rob_q[0]]:
                seq = rob_q.popleft()
                rob_len -= 1
                commits += 1
                committed += 1
                last_commit_cycle = cycle
                kind = kinds[seq]
                if kind == 1:
                    loads += 1
                elif kind == 2:
                    stores += 1
                    store_buffer._committed_count += 1
                    interface_active = True
                else:
                    computes += 1
                in_rob[seq] = 0
                consumers[seq] = None

        cycles_counted += 1

        # 5. Fetch / dispatch into the ROB.
        if next_fetch < total:
            fetched = 0
            while (
                fetched < {spec['fetch']}
                and next_fetch < total
                and rob_len < {spec['rob']}
            ):
                seq = seqs[next_fetch]
                rob_q.append(seq)
                rob_len += 1
                in_rob[seq] = 1
                if kinds[seq] == 2:
                    store_order.append(seq)
                pending = 0
                producers = producers_of[seq]
                if producers:
                    for producer in producers:
                        if produced[producer] or not in_rob[producer]:
                            continue
                        waiting = consumers[producer]
                        if waiting is None:
                            waiting = consumers[producer] = []
                        waiting.append(seq)
                        pending += 1
                    pending_deps[seq] = pending
                if pending == 0:
                    ready_fifo.append(seq)
                next_fetch += 1
                fetched += 1
            dispatched_total += fetched

        cycle += 1

        # 6. Re-arm / disarm the interface event (quiescent() inlined).
        if interface_active and ({q}):
            interface_active = False

        # 7. Clock jump to the next wheel event when this cycle was a no-op.
        if (
            not ready_fifo
            and not ready_heap
            and not due_next
            and not interface_active
            and wheel_next is not NEVER
            and wheel_next > cycle
            and (next_fetch >= total or rob_len >= {spec['rob']})
            and committed < total
            and not (rob_q and completed_f[rob_q[0]])
            and (
                not (deferred or parked_count)
                or (
                    not deferred_blocking
                    and not deferred_has_load
                    and (
                        store_order_head >= len(store_order)
                        or not parked[store_order[store_order_head]]
                        or len(sb_entries) >= {spec['sb']}
                    )
                )
            )
        ):
            skipped = wheel_next - cycle
            cycles_counted += skipped
            fast_forwarded += skipped
            cycle = wheel_next
"""


def _flush_rows(spec: dict) -> list:
    """The batched counters: one ``(guard, pattern, amount)`` row per event.

    When accumulator ``guard`` is non-zero at the end of a run, the epilogue
    adds ``amount * times`` to each ``(slot, times)`` pair of ``pattern``, an
    expression over the run's objects that it evaluates then.  Wherever the
    model counts an event with a ``_combo_*`` tuple, the row's pattern is
    that tuple, so a change to the model's accounting reaches the kernels
    unedited.  A row whose amount is not its guard carries a counter that
    the generic loop bumps, at times by zero, with the guard's event: it is
    live exactly when that event happened.  The model interns some names
    at their first event (``DRAMModel``'s and the WDU's ``stats.add``); the
    kernel interns each at its own first event too, so the stats key order
    matches, and their rows look the names up.
    """

    def once(*handles: str) -> str:
        """A pattern counting each of ``handles`` once (no model tuple)."""
        return "(" + ", ".join(f"({handle}, 1)" for handle in handles) + ",)"

    def named(*names: str) -> str:
        """:func:`once` for counters the model interns at their first event."""
        return once(*(f'stats.handle("{name}")' for name in names))

    # (guard, pattern[, amount]): the amount is the guard unless given
    rows = [
        ("acc_load_submit", "interface._combo_load_submit"),
        ("acc_store_submit", once("interface._h_stores_submitted", "store_buffer._h_insert")),
        ("acc_utlb_hit", "utlb._combo_hit"),
        # a uTLB miss that hits the TLB refills one uTLB slot
        ("acc_tlb_hit", "utlb._combo_miss"),
        ("acc_tlb_hit", "tlb._combo_hit"),
        ("acc_tlb_hit", once("utlb._h_fill")),
        ("acc_tlb_miss", "utlb._combo_miss"),
        ("acc_tlb_miss", "tlb._combo_miss"),
        ("acc_utlb_eviction", once("utlb._h_eviction")),
        ("acc_sb_forward", once("store_buffer._h_forward_hit")),
        ("acc_mb_forward", once("merge_buffer._h_forward_hit")),
        ("acc_load_accesses", once("interface._h_load_accesses")),
        ("acc_lq_completed", once("load_queue._h_completed")),
        ("acc_lq_completed", once("load_queue._h_total_latency"), "acc_lq_latency"),
        ("acc_l1_conv_hit", "bank0._combo_conv_read"),
        ("acc_l1_conv_hit", "l1._combo_load_hit"),
        ("acc_l1_conv_miss", "bank0._combo_conv_read"),
        ("acc_l1_conv_miss", "l1._combo_load_miss"),
        ("acc_l1_fill", "bank0._combo_fill"),
        ("acc_l1_evict", once("bank0._h_eviction")),
        ("acc_l1_writeback", once("bank0._h_writeback")),
        ("acc_l2_hit", "l2._combo_hit"),
        ("acc_l2_miss", "l2._combo_miss"),
        ("acc_l2_writeback", once("l2._h_writeback")),
        ("acc_dram_read", named("dram.read")),
        ("acc_dram_write", named("dram.write")),
        ("acc_sb_drain", once("store_buffer._h_drain")),
        ("acc_mb_merged", once("merge_buffer._h_merged_store")),
        # every merge-buffer eviction queues its line for the cache
        ("acc_mb_eviction", once("merge_buffer._h_eviction", "interface._h_mbe_queued")),
        ("acc_mb_allocate", once("merge_buffer._h_allocate")),
        ("acc_mbe_written", once("interface._h_mbe_written")),
        # a conventional write hit: CacheBank.write_parts and store_parts
        ("acc_store_conv_hit", "bank0._combo_conv_write"),
        ("acc_store_conv_hit", once("bank0._h_data_write")),
        ("acc_store_conv_hit", "l1._combo_store_hit"),
        # a store miss: the conventional write probe, then store_parts' fill
        ("acc_store_miss", "bank0._combo_conv_write"),
        ("acc_store_miss", "l1._combo_store_miss"),
        ("acc_store_miss", once("l1._h_data_write")),
    ]
    if spec["kind"] != "MALEC":
        rows.append(("acc_fwd_full", "interface._combo_fwd_full"))
    else:
        rows += [
            ("acc_fwd_split", "interface._combo_fwd_split"),
            ("acc_load_accesses", once("interface._h_loads_merged"), "acc_loads_merged"),
            ("acc_l1_reduced_hit", "bank0._combo_reduced_read"),
            ("acc_l1_reduced_hit", "l1._combo_load_hit"),
            ("acc_ib_load_in", once("ib._h_load_in")),
            ("acc_mbe_in", once("ib._h_mbe_in")),
            ("acc_page_compare", once("ib._h_page_compare")),
            ("acc_group_selected", once("ib._h_group_selected")),
            ("acc_group_selected", once("ib._h_group_size"), "acc_group_size"),
            ("acc_mbe_out", once("ib._h_mbe_out")),
            ("acc_ib_overflow", once("ib._h_overflow_cycle")),
            ("acc_end_cycles", once("ib._h_held_loads"), "acc_held_loads"),
            ("acc_line_compare", once("arbitration._h_line_compare")),
            ("acc_merged_load", once("arbitration._h_merged_load")),
            ("acc_rej_bus", once("arbitration._h_rejected_result_bus")),
            ("acc_rej_bank", once("arbitration._h_rejected_bank_conflict")),
            ("acc_granted", once("arbitration._h_granted_load")),
            ("acc_way_hint_assigned", once("arbitration._h_way_hint_assigned")),
            ("acc_arb_mbe_conflict", once("arbitration._h_mbe_bank_conflict")),
            ("acc_arb_cycles", once("arbitration._h_cycles")),
            ("acc_arb_cycles", once("arbitration._h_bank_accesses"), "acc_bank_accesses"),
            (
                "acc_shared_page",
                once("store_buffer._h_lookup_page_shared", "merge_buffer._h_lookup_page_shared"),
            ),
            ("acc_group_cycles", once("interface._h_group_cycles")),
            ("acc_group_cycles", once("interface._h_group_loads"), "acc_group_loads"),
        ]
        if spec["way_determination"] != "none":
            rows += [
                # the MBE's hinted write (_l1_store_inline)
                ("acc_store_reduced_hit", "bank0._combo_reduced_write"),
                ("acc_store_reduced_hit", "l1._combo_store_hit"),
                ("acc_way_hint_wrong", once("bank0._h_way_hint_wrong")),
                ("acc_way_unknown", "interface._combo_way_unknown"),
                ("acc_way_known", "interface._combo_way_known"),
                ("acc_way_reduced", "interface._combo_way_reduced"),
            ]
        if spec["way_determination"] == "wt":
            # a reverse lookup that misses the uTLB probes the TLB
            via_tlb = ("utlb._h_reverse_lookup", "utlb._h_reverse_miss", "tlb._h_reverse_lookup")
            rows += [
                ("acc_uwt_read", once("way_tables._h_uwt_read")),
                ("acc_tlb_hit", once("way_tables._h_uwt_transfer")),
                (
                    "acc_uwt_writeback",
                    once("way_tables._h_wt_transfer", "way_tables._h_uwt_writeback"),
                ),
                (
                    "acc_locate_uwt",
                    once(
                        "utlb._h_reverse_lookup",
                        "utlb._h_reverse_hit",
                        "way_tables._h_uwt_update",
                    ),
                ),
                (
                    "acc_locate_wt",
                    once(*via_tlb, "tlb._h_reverse_hit", "way_tables._h_wt_update"),
                ),
                (
                    "acc_evict_unmapped",
                    once(*via_tlb, "tlb._h_reverse_miss", "way_tables._h_evict_unmapped"),
                ),
            ]
            if not spec["restrict"]:
                rows.append(("acc_unencodable", once("way_tables._h_unencodable")))
            if spec["feedback"]:
                rows.append(
                    (
                        "acc_feedback",
                        once("way_tables._h_uwt_update", "way_tables._h_feedback_update"),
                    )
                )
        elif spec["way_determination"] == "wdu":
            rows += [
                ("acc_wdu_lookup", named("wdu.lookup", "way_pred.lookup")),
                ("acc_wdu_known", named("way_pred.known")),
                ("acc_wdu_update", named("wdu.update")),
                ("acc_wdu_eviction", named("wdu.eviction")),
                ("acc_wdu_invalidate", named("wdu.invalidate")),
            ]
    return [(guard, pattern, rest[0] if rest else guard) for guard, pattern, *rest in rows]


def _epilogue(spec: dict) -> str:
    flushes = "\n".join(
        f"    if {guard}:\n        flush({pattern}, {amount})"
        for guard, pattern, amount in _flush_rows(spec)
    )
    return f"""
    # ---- run boundary: flush batched accumulators, then finalize ----
    pipeline.fast_forwarded_cycles += fast_forwarded
    _values = stats._values
    _live = stats._live

    def flush(pattern, amount):
        for slot, times in pattern:
            _values[slot] += amount * times
            _live[slot] = True

{flushes}
    total_cycles = last_commit_cycle + 1
    interface.finalize(total_cycles)
    stats.add("pipeline.issued", issued_total)
    stats.add("pipeline.cycles", cycles_counted)
    stats.add("pipeline.dispatched", dispatched_total)
    stats.set("pipeline.total_cycles", total_cycles)
    stats.set("pipeline.committed", committed)
    return PipelineResult(
        cycles=total_cycles,
        instructions=total,
        loads=loads,
        stores=stores,
        computes=computes,
    )
"""


def generate_source(spec: dict, content_hash: str = "unhashed") -> str:
    """Emit the kernel module source for ``spec``."""
    if spec["kind"] not in KIND_CLASSES:
        raise ValueError(f"cannot specialize interface kind {spec['kind']!r}")
    tick = _tick(spec)
    return (
        _header(spec, content_hash)
        + _guards(spec)
        + _prologue(spec)
        + _loop_head(spec)
        + _issue_stage(spec)
        + "\n        # 3. Interface tick: drain + service + completions, fused.\n"
        + "        if interface_active:\n"
        + tick
        + _loop_tail(spec)
        + _epilogue(spec)
    )
