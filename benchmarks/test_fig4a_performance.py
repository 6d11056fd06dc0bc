"""Fig. 4a — normalized execution times.

Regenerates the per-benchmark and per-suite normalized execution times of the
five configurations (Base1ldst, Base2ld1st_1cycleL1, Base2ld1st, MALEC,
MALEC_3cycleL1), all normalized to Base1ldst.

Paper reference (geometric means over all 38 benchmarks): Base2ld1st ≈ 0.85
(15 % speedup), MALEC ≈ 0.86 (14 % speedup, i.e. within 1 % of Base2ld1st),
MALEC_3cycleL1 ≈ 0.90, with mcf/art showing almost no improvement and
djpeg/h263dec the largest (≈30 %).  The synthetic traces reproduce the
ordering and the relative gap between MALEC and Base2ld1st; absolute speedups
are smaller because the traces are far shorter than the paper's 1-billion
instruction phases.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BASELINE
from repro.analysis.reporting import format_table

CONFIG_ORDER = ["Base1ldst", "Base2ld1st_1cycleL1", "Base2ld1st", "MALEC", "MALEC_3cycleL1"]


def test_fig4a_normalized_execution_time(figure4_results):
    results = figure4_results

    def summarize():
        rows = []
        for run in results.runs:
            normalized = run.normalized_cycles(BASELINE)
            rows.append([run.benchmark, run.suite] + [normalized[name] for name in CONFIG_ORDER])
        for suite in results.suites():
            geomean = results.geomean_normalized_cycles(BASELINE, suite=suite)
            rows.append([f"geo. mean ({suite})", suite] + [geomean[name] for name in CONFIG_ORDER])
        overall = results.geomean_normalized_cycles(BASELINE)
        rows.append(["geo. mean (overall)", "-"] + [overall[name] for name in CONFIG_ORDER])
        return rows, overall

    rows, overall = summarize()
    print("\nFig. 4a — normalized execution time (Base1ldst = 1.0)")
    print(format_table(["benchmark", "suite"] + CONFIG_ORDER, rows))

    # Shape checks against the paper's findings.
    assert overall["Base1ldst"] == pytest.approx(1.0)
    # Both multi-access interfaces are faster than the single-access baseline.
    assert overall["Base2ld1st"] < 0.99
    assert overall["MALEC"] < 0.99
    # MALEC stays within a few percent of the physically multi-ported design.
    assert overall["MALEC"] - overall["Base2ld1st"] < 0.05
    # L1 latency ordering: 1-cycle Base2ld1st fastest variant, 3-cycle MALEC slowest MALEC.
    assert overall["Base2ld1st_1cycleL1"] <= overall["Base2ld1st"] + 1e-9
    assert overall["MALEC_3cycleL1"] >= overall["MALEC"] - 1e-9

    # Benchmark-level character: streaming mcf/art benefit least, media most.
    by_benchmark = {run.benchmark: run.normalized_cycles(BASELINE) for run in results.runs}
    media_speedup = 1 - min(by_benchmark[b]["MALEC"] for b in ("djpeg", "h263dec"))
    mcf_speedup = 1 - by_benchmark["mcf"]["MALEC"]
    assert media_speedup > mcf_speedup
