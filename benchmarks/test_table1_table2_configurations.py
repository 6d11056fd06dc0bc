"""Tables I and II — analyzed configurations and simulation parameters.

These are static tables; the benchmark regenerates them from the
configuration objects (rather than hard-coded strings) so any drift between
the code and the paper's parameters is caught here.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.memory.address import DEFAULT_LAYOUT
from repro.sim.config import SimulationConfig


def test_table1_configurations():
    configs = [
        SimulationConfig.base_1ldst(),
        SimulationConfig.base_2ld1st(),
        SimulationConfig.malec(),
    ]
    rows = [list(config.table1_row().values()) for config in configs]
    print("\nTable I — basic configurations")
    print(
        format_table(
            ["configuration", "addr. comp. per cycle", "uTLB/TLB ports", "cache ports"],
            rows,
        )
    )
    by_name = {row[0]: row for row in rows}
    assert by_name["Base1ldst"][1:] == ["1 ld/st", "1 rd/wt", "1 rd/wt"]
    assert by_name["Base2ld1st"][1:] == ["2 ld + 1 st", "1 rd/wt + 2 rd", "1 rd/wt + 1 rd"]
    assert by_name["MALEC"][1:] == ["1 ld + 2 ld/st", "1 rd/wt", "1 rd/wt"]


def test_table2_simulation_parameters():
    def build():
        config = SimulationConfig.malec()
        layout = DEFAULT_LAYOUT
        return [
            ["Processor", f"out-of-order, {config.pipeline.rob_entries} ROB entries, "
                          f"{config.pipeline.fetch_width}-wide fetch/dispatch, "
                          f"{config.pipeline.issue_width}-wide issue"],
            ["L1 interface", f"{config.tlb.tlb_entries} TLB entries, {config.tlb.utlb_entries} uTLB entries, "
                             f"{config.lq_entries} LQ entries, {config.sb_entries} SB entries, "
                             f"{config.mb_entries} MB entries, {layout.address_bits} bit addr. space, "
                             f"{layout.page_bytes // 1024} KByte pages"],
            ["L1 D-cache", f"{layout.l1_capacity_bytes // 1024} KByte, {config.cache.l1_hit_latency} cycle latency, "
                           f"{layout.line_bytes} byte lines, {layout.l1_associativity}-way set-assoc., "
                           f"{layout.l1_banks} independent banks, PIPT, "
                           f"{layout.subblock_bytes * 8} bit sub-blocks per line"],
            ["L2 cache", f"1 MByte, {config.cache.l2_latency} cycle latency, 16-way set-assoc."],
            ["DRAM", f"256 MByte, {config.cache.dram_latency} cycle latency"],
        ]

    rows = build()
    print("\nTable II — relevant simulation parameters")
    print(format_table(["component", "parameters"], rows))

    text = {name: value for name, value in rows}
    assert "168 ROB entries" in text["Processor"]
    assert "64 TLB entries" in text["L1 interface"] and "16 uTLB entries" in text["L1 interface"]
    assert "32 KByte" in text["L1 D-cache"] and "4 independent banks" in text["L1 D-cache"]
    assert "12 cycle" in text["L2 cache"]
    assert "54 cycle" in text["DRAM"]
