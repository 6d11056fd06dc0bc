"""Sec. VI-B — contribution of load merging to MALEC's speed-up.

The paper reports that merging loads to the same cache line contributes about
21 % of MALEC's overall performance improvement on average, with gap and
equake far above (56 % and 66 %) and mgrid essentially not profiting (<2 %),
and that without data sharing mcf would consume 5 % *more* instead of 51 %
less dynamic energy.

The experiment runs MALEC twice — with and without load merging — and
compares both execution time and dynamic energy against Base1ldst.
"""

from __future__ import annotations

from benchmarks.conftest import TRACE_INSTRUCTIONS, WARMUP_FRACTION
from repro.analysis.reporting import format_table
from repro.sim.config import MalecParameters, SimulationConfig
from repro.sim.simulator import run_configuration
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace

BENCHMARKS = ["gap", "equake", "mgrid", "mcf", "gzip", "djpeg"]


def _run_merging_study():
    base_config = SimulationConfig.base_1ldst()
    malec_config = SimulationConfig.malec()
    no_merge_config = SimulationConfig.malec(
        name="MALEC_no_merge",
        malec_options=MalecParameters(merge_granularity="none"),
    )
    rows = []
    details = {}
    for name in BENCHMARKS:
        trace = generate_trace(benchmark_profile(name), instructions=TRACE_INSTRUCTIONS)
        base = run_configuration(base_config, trace, warmup_fraction=WARMUP_FRACTION)
        malec = run_configuration(malec_config, trace, warmup_fraction=WARMUP_FRACTION)
        no_merge = run_configuration(no_merge_config, trace, warmup_fraction=WARMUP_FRACTION)

        speedup_with = base.cycles / malec.cycles - 1.0
        speedup_without = base.cycles / no_merge.cycles - 1.0
        contribution = 0.0
        if speedup_with > 0:
            contribution = max(0.0, (speedup_with - speedup_without) / speedup_with)
        rows.append(
            [
                name,
                malec.merged_load_fraction,
                speedup_with,
                speedup_without,
                contribution,
                malec.energy.dynamic_pj / base.energy.dynamic_pj,
                no_merge.energy.dynamic_pj / base.energy.dynamic_pj,
            ]
        )
        details[name] = rows[-1]
    return rows, details


def test_sec6b_load_merging_contribution():
    rows, details = _run_merging_study()
    print("\nSec. VI-B — load merging contribution "
          "(paper: ~21% of speed-up on average; gap 56%, equake 66%, mgrid <2%)")
    print(
        format_table(
            [
                "benchmark",
                "merged load frac",
                "speedup (merge on)",
                "speedup (merge off)",
                "merge contribution",
                "dyn energy (on)",
                "dyn energy (off)",
            ],
            rows,
        )
    )

    # Merge-friendly benchmarks actually merge a sizeable share of loads ...
    assert details["gap"][1] > 0.05
    assert details["equake"][1] > 0.05
    assert details["djpeg"][1] > 0.10
    # ... while mgrid's strides defeat merging (paper: <2 % contribution).
    assert details["mgrid"][1] < 0.05
    # Merging never increases dynamic energy; for the merge-friendly
    # benchmarks it reduces it measurably.
    for name in ("gap", "equake", "djpeg", "gzip"):
        assert details[name][5] <= details[name][6] + 1e-9
    # mcf: without data sharing MALEC loses most of its advantage (paper: +5 %
    # instead of -51 % dynamic energy); with merging it must not be worse.
    assert details["mcf"][5] <= details["mcf"][6] + 1e-9
