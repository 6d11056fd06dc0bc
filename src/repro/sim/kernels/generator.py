"""Source generator for specialized simulation kernels (PR 8).

Given a :class:`~repro.sim.config.SimulationConfig`, :func:`build_spec`
extracts every value the hot loop branches on into a flat dict of
primitives, and :func:`generate_source` emits the text of a standalone
Python module whose single entry point::

    kernel_run(pipeline, seqs, total, capacity, trace_arrays) -> PipelineResult

is the event-driven pipeline loop of
:meth:`repro.cpu.pipeline.OutOfOrderPipeline._run_event_driven` with the
interface tick, the acceptance checks and the stat accounting *fused in* and
specialized for that one configuration:

* config-dependent branches are resolved at generation time (interface kind,
  MALEC way determination on/off, merge granularity, TLB/cache geometry,
  buffer depths inlined as literals);
* attribute lookups are hoisted to locals once per run — but only for
  objects the run never rebinds (the generator documents each hoist; e.g.
  ``InputBuffer._held`` is rebound by ``retire`` and is therefore *never*
  hoisted);
* stat bumps are batched into local integer accumulators that flush into
  ``StatCounters`` once at the end of the run.  Sums of integers commute, so
  the flushed totals are bit-identical to per-access bumping.

Bit-identity strategy — *probe, then commit or delegate*: every inlined fast
path starts with side-effect-free probes (dict ``.get`` and list reads).  Only
when the whole probe succeeds does the kernel apply the inline effects;
otherwise it calls the exact original method before having mutated anything,
so slow paths (TLB misses, cache misses, way-hint mismatches) run the
canonical code and charge the canonical counters.
All simulation state stays canonical — the kernel writes the same plain
values into the same containers the generic loop does: the load queue maps
each tag to its issue cycle, the baselines queue ``(tag, address, size)``
tuples, the merge buffer and MALEC's MBE backlog hold line addresses, and
the records left (``StoreBufferEntry``, ``MemoryAccessRequest``,
``BankRequest``, ``PendingWriteback``) are the objects the generic loop
builds too.  So a collector run, a fast-forward, or a later generic run
over the same interface observes identical structures.

The emitted module also begins with a battery of *runtime guards*: if the
live pipeline/interface does not match the generation-time spec (someone
swapped the replacement policy, resized a buffer, attached a collector, …)
``kernel_run`` raises ``RuntimeError`` naming the failed check before
touching anything.  There is no silent fallback to the generic loop.
"""

from __future__ import annotations

from repro.sim.config import InterfaceKind, SimulationConfig

#: bump when the emitted code changes so content hashes (and caches) roll over
GENERATOR_VERSION = 5

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
        "hit_latency": config.cache.l1_hit_latency,
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
    return spec


# ----------------------------------------------------------------------
# Section builders.  Each returns text at its absolute indentation inside
# the generated ``kernel_run`` (4 = function body, 12 = tick body, 20 =
# issue-stage branch body).
# ----------------------------------------------------------------------
def _header(spec: dict, content_hash: str) -> str:
    kind = spec["kind"]
    extra = ""
    if kind == "MALEC":
        extra = (
            "from repro.core.arbitration import BankRequest\n"
            "from repro.core.request import AccessKind, MemoryAccessRequest\n"
            "\n"
            "AK_LOAD = AccessKind.LOAD\n"
            "AK_MBE = AccessKind.MBE\n"
        )
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
        f"from repro.buffers.store_buffer import StoreBufferEntry\n"
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
        "    l1 = interface.hierarchy.l1",
        "    banks = l1.banks",
        _check(f"l1.hit_latency != {spec['hit_latency']}"),
        _check(f"len(banks) != {spec['nbanks']}"),
        "    bank0 = banks[0]",
        _check(f"bank0.array.num_sets != {spec['sets']}"),
        _check(f"bank0.array.ways != {spec['ways']}"),
        "    translation = interface.translation",
        "    utlb = translation.utlb",
        _check('type(utlb._policy).__name__ != "SecondChanceReplacement"'),
    ]
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
    return "\n".join(lines) + "\n"


def _prologue(spec: dict) -> str:
    kind = spec["kind"]
    lines = [
        "",
        "    # ---- hoisted structures (stable objects only: these attribute",
        "    # slots are mutated in place but never rebound during a run) ----",
        "    _values = stats._values",
        "    _live = stats._live",
        "    decompose = layout.decompose",
        "    translate_pair = translation.translate_pair",
        "    utlb_by_vpage_get = utlb._by_vpage.get",
        "    utlb_slots = utlb._slots",
        "    utlb_referenced = utlb._policy._referenced",
        "    lq_entries = load_queue._entries",
        "    sb_entries = store_buffer._entries",
        "    sb_by_tag = store_buffer._by_tag",
        "    mb_entries = merge_buffer._entries",
        "    load_parts = l1.load_parts",
        "    bank_slot_of = [bank.array._slot_of for bank in banks]",
        "    bank_stamps = [bank.array._stamps for bank in banks]",
        "    bank_tick = [bank.array._tick for bank in banks]",
        "    pending_writebacks = interface._pending_writebacks",
        "    drain_committed = interface._drain_committed_stores",
    ]
    if kind in ("Base1ldst", "Base2ld1st"):
        lines += [
            "    pending_loads = interface._pending_loads",
            "    writeback_to_cache = interface._writeback_to_cache",
        ]
    if kind == "Base2ld1st":
        lines += [
            "    bank_index_of = layout.bank_index",
            "    line_address_of = layout.line_address",
            "    store_parts = l1.store_parts",
        ]
    if kind == "MALEC":
        lines += [
            "    bank_tags = [bank.array._tags for bank in banks]",
            "    mbe_backlog = interface._mbe_backlog",
            "    feed_mbe_slot = interface._feed_mbe_slot",
            "    translate_page_pair = translation.translate_page_pair",
            "    store_parts = l1.store_parts",
            "    mk_deque = deque",
        ]
        wd = spec["way_determination"]
        if wd == "wt":
            lines += [
                "    way_tables = interface.way_tables",
                "    uwt_entries = way_tables.uwt._entries",
                "    predict_page = way_tables.predict_page",
                "    feedback_hit = way_tables.feedback_conventional_hit",
            ]
        elif wd == "wdu":
            lines += [
                "    wdu_predict = interface.wdu.predict",
                "    wdu_record = interface.wdu.record",
            ]
    lines += [
        "",
        "    # ---- stat handles (integer slots) and batched accumulators ----",
        "    h_if_loads_submitted = interface._h_loads_submitted",
        "    h_lq_allocate = load_queue._h_allocate",
        "    h_if_stores_submitted = interface._h_stores_submitted",
        "    h_sb_insert = store_buffer._h_insert",
        "    h_utlb_lookup = utlb._h_lookup",
        "    h_utlb_hit = utlb._h_hit",
        "    h_sb_forward = store_buffer._h_forward_hit",
        "    h_mb_forward = merge_buffer._h_forward_hit",
        "    h_if_load_accesses = interface._h_load_accesses",
        "    h_lq_completed = load_queue._h_completed",
        "    h_lq_latency = load_queue._h_total_latency",
        "    h_bk_ctrl = bank0._h_ctrl",
        "    h_bk_tag_read = bank0._h_tag_read",
        "    h_bk_data_read = bank0._h_data_read",
        "    h_bk_conventional = bank0._h_conventional_access",
        "    h_bk_subblock = bank0._h_subblock_pair_read",
        "    h_l1_load = l1._h_load",
        "    h_l1_load_hit = l1._h_load_hit",
    ]
    accs = [
        "acc_load_submit",
        "acc_store_submit",
        "acc_utlb_hit",
        "acc_sb_forward",
        "acc_mb_forward",
        "acc_load_accesses",
        "acc_lq_completed",
        "acc_lq_latency",
        "acc_l1_conv_hit",
    ]
    if kind in ("Base1ldst", "Base2ld1st"):
        lines += [
            "    h_sb_lookup_full = store_buffer._h_lookup_full",
            "    h_mb_lookup_full = merge_buffer._h_lookup_full",
        ]
        accs.append("acc_fwd_full")
    if kind == "Base2ld1st":
        lines += ["    h_if_mbe_written = interface._h_mbe_written"]
        accs += ["acc_mbe_written"]
    if kind == "MALEC":
        lines += [
            "    h_sb_lookup_offset = store_buffer._h_lookup_offset",
            "    h_mb_lookup_offset = merge_buffer._h_lookup_offset",
            "    h_sb_page_shared = store_buffer._h_lookup_page_shared",
            "    h_mb_page_shared = merge_buffer._h_lookup_page_shared",
            "    h_bk_reduced = bank0._h_reduced_access",
            "    h_if_mbe_written = interface._h_mbe_written",
            "    h_if_loads_merged = interface._h_loads_merged",
            "    h_ib_load_in = ib._h_load_in",
            "    h_ib_page_compare = ib._h_page_compare",
            "    h_ib_group_selected = ib._h_group_selected",
            "    h_ib_group_size = ib._h_group_size",
            "    h_ib_overflow = ib._h_overflow_cycle",
            "    h_ib_held_loads = ib._h_held_loads",
            "    h_ib_mbe_out = ib._h_mbe_out",
            "    h_arb_mbe_conflict = arbitration._h_mbe_bank_conflict",
            "    h_arb_line_compare = arbitration._h_line_compare",
            "    h_arb_merged_load = arbitration._h_merged_load",
            "    h_arb_rej_bus = arbitration._h_rejected_result_bus",
            "    h_arb_rej_bank = arbitration._h_rejected_bank_conflict",
            "    h_arb_granted = arbitration._h_granted_load",
            "    h_arb_way_hint = arbitration._h_way_hint_assigned",
            "    h_arb_cycles = arbitration._h_cycles",
            "    h_arb_bank_accesses = arbitration._h_bank_accesses",
            "    h_m_group_cycles = interface._h_group_cycles",
            "    h_m_group_loads = interface._h_group_loads",
        ]
        accs += [
            "acc_fwd_split",
            "acc_l1_reduced_hit",
            "acc_mbe_written",
            "acc_loads_merged",
            "acc_ib_load_in",
            "acc_page_compare",
            "acc_group_selected",
            "acc_group_size",
            "acc_mbe_out",
            "acc_ib_overflow",
            "acc_held_loads",
            "acc_end_cycles",
            "acc_line_compare",
            "acc_merged_load",
            "acc_rej_bus",
            "acc_rej_bank",
            "acc_granted",
            "acc_way_hint_assigned",
            "acc_arb_mbe_conflict",
            "acc_arb_cycles",
            "acc_bank_accesses",
            "acc_shared_page",
            "acc_group_cycles",
            "acc_group_loads",
        ]
        if spec["way_determination"] in ("wt", "wdu"):
            lines += [
                "    h_way_lookup = interface._h_way_lookup",
                "    h_way_known = interface._h_way_known",
                "    h_m_reduced = interface._h_reduced_access",
            ]
            accs += ["acc_way_unknown", "acc_way_known", "acc_way_reduced"]
        if spec["way_determination"] == "wt":
            lines += ["    h_uwt_read = way_tables.uwt._h_read"]
            accs += ["acc_uwt_read"]
    for i in range(0, len(accs), 4):
        lines.append("    " + " = ".join(accs[i : i + 4]) + " = 0")
    return "\n".join(lines) + "\n"


def _loop_head(spec: dict) -> str:
    q = _quiescent_expr(spec)
    return f"""
    # ---- event-driven loop state (transcribed from _run_event_driven) ----
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
    head = f"""
        # 2. Issue ready instructions (oldest first, up to issue width).
        if ready_fifo or ready_heap or deferred:
            loads_used = stores_used = flex_used = 0
            issued = 0
            postponed = []
            postponed_load = False
            loads_blocked = stores_blocked = False
            di = 0
            dn = len(deferred)
            simple = not dn and not ready_heap
            while issued < {spec['issue']}:
                if simple:
                    if not ready_fifo:
                        break
                    seq = ready_fifo.popleft()
                else:
                    s_def = deferred[di] if di < dn else NEVER
                    s_fifo = ready_fifo[0] if ready_fifo else NEVER
                    s_heap = ready_heap[0] if ready_heap else NEVER
                    if s_def <= s_fifo:
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
            if di < dn:
                postponed += deferred[di:]
                deferred_blocking = True
            else:
                deferred_blocking = False
            deferred = postponed
            deferred_has_load = postponed_load
            issued_total += issued
"""
    return head


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
                        ib._new.append(
                            MemoryAccessRequest(
                                kind=AK_LOAD,
                                virtual_address=addresses[seq],
                                size=sizes[seq],
                                tag=seq,
                                layout=layout,
                            )
                        )
                        interface_active = True
                        issued += 1
                    else:
                        loads_blocked = True
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
        # _on_store_submitted: translate_pair with the uTLB-hit fast path
        probe = f"""
                        vpage = address >> {spec['page_shift']}
                        slot = utlb_by_vpage_get(vpage)
                        if slot is not None:
                            acc_utlb_hit += 1
                            utlb_referenced[slot] = True
                        else:
                            translate_pair(address)"""
    return f"""\
                    in_store_order = (
                        store_order_head < len(store_order)
                        and store_order[store_order_head] == seq
                    )
                    if (
                        not stores_blocked
                        and in_store_order
                        and len(sb_entries) < {spec['sb']}
                        and {slot_check}
                    ):
                        {consume}
                        store_order_head += 1
                        issued_f[seq] = 1
                        address = addresses[seq]
                        sb_entry = StoreBufferEntry(seq, address, sizes[seq])
                        sb_entries.append(sb_entry)
                        sb_by_tag[seq] = sb_entry
                        acc_store_submit += 1{probe}
                        interface_active = True
                        due_next.append(seq)
                        issued += 1
                    else:
                        stores_blocked = True
                        postponed.append(seq)"""


# The shared fragments below are emitted at several indentation depths; they
# are written indent-relative and shifted with _shift().
def _shift(text: str, spaces: int) -> str:
    pad = " " * spaces
    return "\n".join(pad + line if line.strip() else line for line in text.split("\n"))


def _translate_pair_inline(spec: dict, addr: str, indent: int) -> str:
    """uTLB-hit fast path of TLBHierarchy.translate_pair; miss delegates."""
    text = f"""\
vpage = {addr} >> {spec['page_shift']}
slot = utlb_by_vpage_get(vpage)
if slot is not None:
    acc_utlb_hit += 1
    utlb_referenced[slot] = True
    physical = (
        utlb_slots[slot].physical_page << {spec['page_shift']}
    ) | ({addr} & {spec['page_off_mask']})
    translation_latency = 0
else:
    physical, translation_latency = translate_pair({addr})"""
    return _shift(text, indent)


def _forwarding_inline(spec: dict, addr: str, size: str, acc_charge: str, indent: int) -> str:
    """BaseL1Interface._forwarding_lookups with the charge batched."""
    text = f"""\
{acc_charge} += 1
fwd_end = {addr} + {size}
for fw_entry in reversed(sb_entries):
    fw_start = fw_entry.virtual_address
    if fw_start < fwd_end and {addr} < fw_start + fw_entry.size:
        acc_sb_forward += 1
        break
if ({addr} & {spec['line_neg_mask']}) in mb_entries:
    acc_mb_forward += 1"""
    return _shift(text, indent)


def _l1_conventional_inline(spec: dict, phys: str, indent: int) -> str:
    """The baselines' conventional (no way hint) L1 load probe; a miss
    delegates.  Sets ``latency``, the only result the baselines read."""
    text = f"""\
pparts = decompose({phys})
pbank = pparts[5]
l1_slot = bank_slot_of[pbank].get(pparts[7] * {spec['sets']} + pparts[6])
if l1_slot is not None:
    bank_stamps[pbank][l1_slot] = next(bank_tick[pbank])
    acc_l1_conv_hit += 1
    latency = {spec['hit_latency']}
else:
    latency = load_parts({phys})[2]"""
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
                drain_committed()
            if pending_loads:
                tag, address, size = pending_loads.popleft()
{_translate_pair_inline(spec, "address", 16)}
{_forwarding_inline(spec, "address", "size", "acc_fwd_full", 16)}
{_l1_conventional_inline(spec, "physical", 16)}
                acc_load_accesses += 1
                ready_cycle = cycle + translation_latency + latency
{_release_and_schedule(16, "tag", "ready_cycle")}
            elif pending_writebacks:
                writeback_to_cache(pending_writebacks.popleft())
"""


def _tick_2ld1st(spec: dict) -> str:
    return f"""\
            if store_buffer._committed_count:
                drain_committed()
            if pending_loads or pending_writebacks:
                completions = []
                bank_accesses = {{}}
                serviced = 0
                while pending_loads and serviced < 2:
                    tag, address, size = pending_loads.popleft()
                    bank = bank_index_of(address)
{_translate_pair_inline(spec, "address", 20)}
{_forwarding_inline(spec, "address", "size", "acc_fwd_full", 20)}
{_l1_conventional_inline(spec, "physical", 20)}
                    bank_accesses[bank] = bank_accesses.get(bank, 0) + 1
                    completions.append((tag, cycle + translation_latency + latency))
                    acc_load_accesses += 1
                    serviced += 1
                if pending_writebacks:
                    writeback = pending_writebacks[0]
                    if writeback.physical_line_address is None:
                        physical, _lat = translate_pair(writeback.virtual_line_address)
                        writeback.physical_line_address = line_address_of(physical)
                    bank = bank_index_of(writeback.physical_line_address)
                    if bank_accesses.get(bank, 0) < 2:
                        pending_writebacks.popleft()
                        store_parts(writeback.physical_line_address)
                        acc_mbe_written += 1
                for tag, ready_cycle in completions:
{_release_and_schedule(20, "tag", "ready_cycle")}
"""


def _merge_scan(spec: dict) -> str:
    """ArbitrationUnit's merge window scan, granularity resolved now."""
    gran = spec["merge_granularity"]
    if gran == "none":
        return ""
    if gran == "line":
        predicate = "owner_primary._line_number == request._line_number"
    elif gran == "subblock_pair":
        predicate = (
            "owner_primary._line_number == request._line_number\n"
            "                            and owner_primary._subblock_pair"
            " == request._subblock_pair"
        )
    else:  # subblock
        predicate = (
            "owner_primary._line_number == request._line_number\n"
            "                            and subblock_of(owner_primary.virtual_address)\n"
            "                            == subblock_of(request.virtual_address)"
        )
    return f"""
                    if position <= {spec['merge_window']}:
                        for owner in bank_owner.values():
                            if owner.is_write:
                                continue
                            acc_line_compare += 1
                            owner_primary = owner.primary
                            if (
                                {predicate}
                            ):
                                if loads_granted >= {spec['result_buses']}:
                                    break
                                owner.merged.append(request)
                                serviced.append(request)
                                loads_granted += 1
                                merged = True
                                acc_merged_load += 1
                                break"""


def _predict_fragment(spec: dict) -> str:
    wd = spec["way_determination"]
    if wd == "wt":
        # WayTableHierarchy.predict_page: a second uTLB probe of the same
        # page (count_event=False: touch but no lookup/hit counters).
        return """\
                slot = utlb_by_vpage_get(page)
                if slot is not None:
                    utlb_referenced[slot] = True
                    way_tables._last_uwt_slot = slot
                    acc_uwt_read += 1
                    way_entry = uwt_entries[slot]
                else:
                    way_entry = predict_page(page)"""
    return "                way_entry = None"


def _assign_ways(spec: dict) -> str:
    if spec["way_determination"] != "wt":
        return ""
    return """
                if way_entry is not None:
                    wt_codes = way_entry._codes
                    wt_decode = way_entry._decode_tbl
                    for bank_request in bank_requests:
                        lip = bank_request.primary.line_in_page
                        way = wt_decode[lip][wt_codes[lip]]
                        if way is not None:
                            bank_request.way_hint = way
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
    wd = spec["way_determination"]
    if wd == "wt":
        return """
                    if way_hint is None and l1_hit:
                        feedback_hit(physical_address, l1_way)"""
    if wd == "wdu":
        return """
                    if way_hint is None and l1_hit:
                        if l1_way is not None:
                            wdu_record(physical_address, l1_way)"""
    return ""


def _wdu_predict(spec: dict) -> str:
    if spec["way_determination"] != "wdu":
        return ""
    return """
                    wdu_way = wdu_predict(physical_address)
                    if wdu_way is not None:
                        way_hint = wdu_way"""


def _tick_malec(spec: dict) -> str:
    subblock_hoist = ""
    if spec["merge_granularity"] == "subblock":
        subblock_hoist = "\n                subblock_of = layout.subblock_in_line"
    return f"""\
            if store_buffer._committed_count:
                drain_committed()
            if mbe_backlog or ib._held or ib._new or ib._mbe is not None:
                if mbe_backlog and ib._mbe is None:
                    feed_mbe_slot()
                held = ib._held
                new = ib._new
                mbe = ib._mbe{subblock_hoist}
                # ---- InputBuffer.select_group ----
                if held:
                    leader = held[0]
                elif new:
                    leader = new[0]
                else:
                    leader = mbe
                page = leader.virtual_page
                members = []
                compares = -1
                for request in held:
                    compares += 1
                    if request.virtual_page == page:
                        members.append(request)
                for request in new:
                    compares += 1
                    if request.virtual_page == page:
                        members.append(request)
                if mbe is not None:
                    compares += 1
                    if mbe.virtual_page == page:
                        members.append(mbe)
                if compares:
                    acc_page_compare += compares
                acc_group_selected += 1
                acc_group_size += len(members)
                # ---- translate_page_pair (uTLB-hit fast path) ----
                slot = utlb_by_vpage_get(page)
                if slot is not None:
                    acc_utlb_hit += 1
                    utlb_referenced[slot] = True
                    physical_page = utlb_slots[slot].physical_page
                    translation_latency = 0
                else:
                    physical_page, translation_latency = translate_page_pair(page)
{_predict_fragment(spec)}
                # ---- ArbitrationUnit.arbitrate ----
                bank_owner = {{}}
                bank_requests = []
                serviced = []
                loads_granted = 0
                for position, request in enumerate(members):
                    bank = request.bank_index
                    if request.is_mbe:
                        if bank in bank_owner:
                            acc_arb_mbe_conflict += 1
                            continue
                        bank_request = BankRequest(request, is_write=True)
                        bank_owner[bank] = bank_request
                        bank_requests.append(bank_request)
                        serviced.append(request)
                        continue
                    merged = False{_merge_scan(spec)}
                    if merged:
                        continue
                    if loads_granted >= {spec['result_buses']}:
                        acc_rej_bus += 1
                        continue
                    if bank in bank_owner:
                        acc_rej_bank += 1
                        continue
                    bank_request = BankRequest(request)
                    bank_owner[bank] = bank_request
                    bank_requests.append(bank_request)
                    serviced.append(request)
                    loads_granted += 1
                    acc_granted += 1{_assign_ways(spec)}
                acc_arb_cycles += 1
                acc_bank_accesses += len(bank_requests)
                if loads_granted:
                    acc_shared_page += 1
                completions = []
                # ---- per-bank servicing (_service_bank_request) ----
                for bank_request in bank_requests:
                    primary = bank_request.primary
                    address = primary.virtual_address
                    physical_address = (
                        physical_page << {spec['page_shift']}
                    ) | (address & {spec['page_off_mask']})
                    primary.physical_address = physical_address
                    way_hint = bank_request.way_hint{_wdu_predict(spec)}
                    if bank_request.is_write:
                        reduced = store_parts(physical_address, way_hint=way_hint)[3]
                        acc_mbe_written += 1{_way_acct(spec, 24)}
                        continue
                    merged_requests = bank_request.merged
{_forwarding_inline(spec, "address", "primary.size", "acc_fwd_split", 20)}
                    for request in merged_requests:
                        maddr = request.virtual_address
                        request.physical_address = (
                            physical_page << {spec['page_shift']}
                        ) | (maddr & {spec['page_off_mask']})
{_forwarding_inline(spec, "maddr", "request.size", "acc_fwd_split", 24)}
                    # ---- L1 load: reduced / conventional probe, else delegate
                    pparts = decompose(physical_address)
                    pbank = pparts[5]
                    set_index = pparts[6]
                    ptag = pparts[7]
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
                            l1_hit, l1_way, latency, reduced, _b, _w = load_parts(
                                physical_address
                            )
                    acc_load_accesses += 1
                    acc_loads_merged += len(merged_requests){_way_acct(spec, 20)}{_feedback(spec)}
                    ready_cycle = cycle + translation_latency + latency
                    if primary.tag is not None:
                        completions.append((primary.tag, ready_cycle))
                    for request in merged_requests:
                        if request.tag is not None:
                            completions.append((request.tag, ready_cycle))
                # ---- InputBuffer.retire + end_cycle ----
                gone = set(serviced)
                held2 = mk_deque(request for request in held if request not in gone)
                new2 = [request for request in new if request not in gone]
                if mbe is not None and mbe in gone:
                    ib._mbe = None
                    acc_mbe_out += 1
                if new2:
                    held2.extend(new2)
                ib._held = held2
                ib._new = []
                held_count = len(held2)
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
        # 4. Commit in order (commit_store inlined: StoreBuffer.mark_committed).
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
                    sb_entry = sb_by_tag.get(seq)
                    if sb_entry is not None and not sb_entry.committed:
                        sb_entry.committed = True
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
                not deferred
                or (
                    not deferred_blocking
                    and not deferred_has_load
                    and (
                        store_order_head >= len(store_order)
                        or store_order[store_order_head] not in deferred
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


def _flush_row(guard: str, targets, indent: int = 4) -> str:
    pad = " " * indent
    lines = [f"{pad}if {guard}:"]
    for handle, amount in targets:
        lines.append(f"{pad}    _values[{handle}] += {amount}")
        lines.append(f"{pad}    _live[{handle}] = True")
    return "\n".join(lines)


def _epilogue(spec: dict) -> str:
    kind = spec["kind"]
    rows = [
        _flush_row(
            "acc_load_submit",
            [("h_if_loads_submitted", "acc_load_submit"), ("h_lq_allocate", "acc_load_submit")],
        ),
        _flush_row(
            "acc_store_submit",
            [("h_if_stores_submitted", "acc_store_submit"), ("h_sb_insert", "acc_store_submit")],
        ),
        _flush_row(
            "acc_utlb_hit",
            [("h_utlb_lookup", "acc_utlb_hit"), ("h_utlb_hit", "acc_utlb_hit")],
        ),
        _flush_row("acc_sb_forward", [("h_sb_forward", "acc_sb_forward")]),
        _flush_row("acc_mb_forward", [("h_mb_forward", "acc_mb_forward")]),
        _flush_row(
            "acc_lq_completed",
            [("h_lq_completed", "acc_lq_completed"), ("h_lq_latency", "acc_lq_latency")],
        ),
        _flush_row(
            "acc_l1_conv_hit",
            [
                ("h_bk_ctrl", "acc_l1_conv_hit"),
                ("h_bk_tag_read", f"acc_l1_conv_hit * {spec['ways']}"),
                ("h_bk_data_read", f"acc_l1_conv_hit * {spec['ways']}"),
                ("h_bk_conventional", "acc_l1_conv_hit"),
                ("h_bk_subblock", "acc_l1_conv_hit"),
                ("h_l1_load", "acc_l1_conv_hit"),
                ("h_l1_load_hit", "acc_l1_conv_hit"),
            ],
        ),
    ]
    if kind in ("Base1ldst", "Base2ld1st"):
        rows += [
            _flush_row(
                "acc_fwd_full",
                [("h_sb_lookup_full", "acc_fwd_full"), ("h_mb_lookup_full", "acc_fwd_full")],
            ),
            _flush_row("acc_load_accesses", [("h_if_load_accesses", "acc_load_accesses")]),
        ]
    if kind == "Base2ld1st":
        rows += [_flush_row("acc_mbe_written", [("h_if_mbe_written", "acc_mbe_written")])]
    if kind == "MALEC":
        rows += [
            _flush_row(
                "acc_fwd_split",
                [("h_sb_lookup_offset", "acc_fwd_split"), ("h_mb_lookup_offset", "acc_fwd_split")],
            ),
            # loads_merged is bumped (possibly with 0) alongside every
            # load_accesses bump, so its liveness follows that guard.
            _flush_row(
                "acc_load_accesses",
                [
                    ("h_if_load_accesses", "acc_load_accesses"),
                    ("h_if_loads_merged", "acc_loads_merged"),
                ],
            ),
            _flush_row(
                "acc_l1_reduced_hit",
                [
                    ("h_bk_ctrl", "acc_l1_reduced_hit"),
                    ("h_bk_data_read", "acc_l1_reduced_hit"),
                    ("h_bk_reduced", "acc_l1_reduced_hit"),
                    ("h_bk_subblock", "acc_l1_reduced_hit"),
                    ("h_l1_load", "acc_l1_reduced_hit"),
                    ("h_l1_load_hit", "acc_l1_reduced_hit"),
                ],
            ),
            _flush_row("acc_mbe_written", [("h_if_mbe_written", "acc_mbe_written")]),
            _flush_row("acc_ib_load_in", [("h_ib_load_in", "acc_ib_load_in")]),
            _flush_row("acc_page_compare", [("h_ib_page_compare", "acc_page_compare")]),
            # group_size/held_loads/group_loads/bank_accesses take zero-amount
            # bumps in the generic path (which still set the live flag), so
            # they flush under their companion once-per-event guards.
            _flush_row(
                "acc_group_selected",
                [
                    ("h_ib_group_selected", "acc_group_selected"),
                    ("h_ib_group_size", "acc_group_size"),
                ],
            ),
            _flush_row("acc_mbe_out", [("h_ib_mbe_out", "acc_mbe_out")]),
            _flush_row("acc_ib_overflow", [("h_ib_overflow", "acc_ib_overflow")]),
            _flush_row("acc_end_cycles", [("h_ib_held_loads", "acc_held_loads")]),
            _flush_row("acc_line_compare", [("h_arb_line_compare", "acc_line_compare")]),
            _flush_row("acc_merged_load", [("h_arb_merged_load", "acc_merged_load")]),
            _flush_row("acc_rej_bus", [("h_arb_rej_bus", "acc_rej_bus")]),
            _flush_row("acc_rej_bank", [("h_arb_rej_bank", "acc_rej_bank")]),
            _flush_row("acc_granted", [("h_arb_granted", "acc_granted")]),
            _flush_row("acc_way_hint_assigned", [("h_arb_way_hint", "acc_way_hint_assigned")]),
            _flush_row("acc_arb_mbe_conflict", [("h_arb_mbe_conflict", "acc_arb_mbe_conflict")]),
            _flush_row(
                "acc_arb_cycles",
                [("h_arb_cycles", "acc_arb_cycles"), ("h_arb_bank_accesses", "acc_bank_accesses")],
            ),
            _flush_row(
                "acc_shared_page",
                [("h_sb_page_shared", "acc_shared_page"), ("h_mb_page_shared", "acc_shared_page")],
            ),
            _flush_row(
                "acc_group_cycles",
                [("h_m_group_cycles", "acc_group_cycles"), ("h_m_group_loads", "acc_group_loads")],
            ),
        ]
        if spec["way_determination"] in ("wt", "wdu"):
            rows += [
                "    way_total = acc_way_unknown + acc_way_known + acc_way_reduced",
                _flush_row("way_total", [("h_way_lookup", "way_total")]),
                "    way_known_total = acc_way_known + acc_way_reduced",
                _flush_row("way_known_total", [("h_way_known", "way_known_total")]),
                _flush_row("acc_way_reduced", [("h_m_reduced", "acc_way_reduced")]),
            ]
        if spec["way_determination"] == "wt":
            rows += [_flush_row("acc_uwt_read", [("h_uwt_read", "acc_uwt_read")])]
    body = "\n".join(rows)
    return f"""
    # ---- run boundary: flush batched accumulators, then finalize ----
    pipeline.fast_forwarded_cycles += fast_forwarded
{body}
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
