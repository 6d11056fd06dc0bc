"""Fig. 4b — normalized energy consumption (dynamic + leakage).

Regenerates the energy view of Fig. 4: per benchmark and per suite, the
dynamic and leakage energy of every configuration normalized to Base1ldst's
total energy.

Paper reference (averages): Base2ld1st consumes ~42 % more *dynamic* energy
and ~48 % more *total* energy than Base1ldst; MALEC saves ~33 % dynamic and
~22 % total energy (48 % less than Base2ld1st).  mcf shows unusually high
MALEC savings thanks to load merging reducing the number of missing loads.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BASELINE
from repro.analysis.reporting import format_table

CONFIG_ORDER = ["Base1ldst", "Base2ld1st_1cycleL1", "Base2ld1st", "MALEC", "MALEC_3cycleL1"]


def test_fig4b_normalized_energy(figure4_results):
    results = figure4_results

    def summarize():
        rows = []
        for run in results.runs:
            normalized = run.normalized_energy(BASELINE)
            row = [run.benchmark, run.suite]
            for name in CONFIG_ORDER:
                row.append(normalized[name]["dynamic"])
                row.append(normalized[name]["total"])
            rows.append(row)
        overall_total = results.geomean_normalized_energy(BASELINE, component="total")
        overall_dynamic = results.geomean_normalized_energy(BASELINE, component="dynamic")
        overall_leakage = results.geomean_normalized_energy(BASELINE, component="leakage")
        return rows, overall_dynamic, overall_leakage, overall_total

    rows, dynamic, leakage, total = summarize()

    headers = ["benchmark", "suite"]
    for name in CONFIG_ORDER:
        headers += [f"{name}:dyn", f"{name}:tot"]
    print("\nFig. 4b — normalized energy (fraction of Base1ldst total)")
    print(format_table(headers, rows))
    summary = [
        [name, dynamic[name], leakage[name], total[name]] for name in CONFIG_ORDER
    ]
    print(format_table(["configuration", "dynamic", "leakage", "total"], summary))
    print(
        "paper reference: Base2ld1st dyn +42% / total +48%; "
        "MALEC dyn -33% / total -22% vs Base1ldst"
    )

    base_dynamic = dynamic["Base1ldst"]
    # Base2ld1st pays for its extra ports in both dynamic and total energy.
    assert dynamic["Base2ld1st"] > 1.15 * base_dynamic
    assert total["Base2ld1st"] > 1.15
    # MALEC saves dynamic energy and total energy relative to Base1ldst ...
    assert dynamic["MALEC"] < 0.85 * base_dynamic
    assert total["MALEC"] < 0.95
    # ... and roughly half of Base2ld1st's total energy (paper: 48 % less).
    assert total["MALEC"] / total["Base2ld1st"] < 0.70
    # Leakage, unlike dynamic energy, is similar for MALEC and Base1ldst
    # (same port counts; the way tables add only a few percent).
    assert leakage["MALEC"] == pytest.approx(leakage["Base1ldst"], rel=0.25)


def test_fig4b_mcf_benefits_from_load_merging(figure4_results):
    """Sec. VI-C: mcf's high miss rate makes load merging especially valuable."""
    malec = figure4_results.run_for("mcf").results["MALEC"]
    # Some loads are merged even in the pointer-chasing benchmark because
    # consecutive field accesses hit the same node line.  The synthetic mcf
    # merges far fewer loads than the real benchmark (its dependent loads
    # rarely coexist in one Input Buffer group), so only the existence of the
    # effect is asserted here; the energy consequence is checked in
    # benchmarks/test_sec6b_load_merging.py.
    assert malec.merged_load_fraction > 0.0
