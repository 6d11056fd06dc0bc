"""Fig. 1 — consecutive accesses to the same page.

Regenerates the motivation figure: for every suite, the fraction of loads
followed by another load to the same page when 0, 1, 2, 3, 4 or 8
intermediate accesses to a different page are tolerated, plus the stacked
run-length distribution of Fig. 1 and the same-line follow fraction quoted in
Sec. III (46 %).  Paper reference values: 70 % / 85 % / 90 % / 92 % for
0/1/2/3 intermediates and ~46 % same-line.
"""

from __future__ import annotations

import pytest

from repro.analysis.locality import PageLocalityAnalyzer, RUN_LENGTH_BUCKETS
from repro.analysis.reporting import format_table
from repro.workloads.suites import MEDIABENCH2, SPEC_FP, SPEC_INT, suite_profiles
from repro.workloads.synthetic import generate_trace

INTERMEDIATES = (0, 1, 2, 3, 4, 8)
INSTRUCTIONS = 4_000
#: per-suite benchmark subset (first entries of each suite, paper order)
PER_SUITE = 5


def _suite_loads(suite: str):
    """Load-address streams of a subset of the suite's benchmarks."""
    streams = {}
    for profile in suite_profiles(suite)[:PER_SUITE]:
        trace = generate_trace(profile, instructions=INSTRUCTIONS)
        streams[profile.name] = trace.load_addresses()
    return streams


def _figure1(analyzer: PageLocalityAnalyzer):
    """Compute the Fig. 1 data: per-suite and overall follow fractions."""
    rows = []
    overall = {n: [] for n in INTERMEDIATES}
    overall_line = []
    for suite in (SPEC_INT, SPEC_FP, MEDIABENCH2):
        per_suite = {n: [] for n in INTERMEDIATES}
        for name, loads in _suite_loads(suite).items():
            for n in INTERMEDIATES:
                fraction = analyzer.same_page_follow_fraction(loads, n)
                per_suite[n].append(fraction)
                overall[n].append(fraction)
            overall_line.append(analyzer.same_line_follow_fraction(loads))
        rows.append(
            [suite] + [sum(per_suite[n]) / len(per_suite[n]) for n in INTERMEDIATES]
        )
    rows.append(["Overall"] + [sum(overall[n]) / len(overall[n]) for n in INTERMEDIATES])
    return rows, sum(overall_line) / len(overall_line)


def test_fig1_page_locality():
    analyzer = PageLocalityAnalyzer()
    rows, line_follow = _figure1(analyzer)

    headers = ["suite"] + [f"<= {n} interm." for n in INTERMEDIATES]
    print("\nFig. 1 — fraction of loads followed by a same-page load")
    print(format_table(headers, rows))
    print(f"same-line follow fraction (paper: ~0.46): {line_follow:.3f}")

    overall = dict(zip(INTERMEDIATES, rows[-1][1:]))
    # Paper: 70 % with no intermediates, rising to 92 % with three.
    assert 0.55 <= overall[0] <= 0.90
    assert overall[3] >= overall[0] + 0.03
    assert all(overall[a] <= overall[b] + 1e-9 for a, b in zip(INTERMEDIATES, INTERMEDIATES[1:]))
    # Paper: 46 % of loads are directly followed by a same-line load.
    assert 0.25 <= line_follow <= 0.70


def test_fig1_run_length_distribution():
    """The stacked-bar view of Fig. 1 (run lengths 1, 2, 3-4, 5-8, >8)."""
    analyzer = PageLocalityAnalyzer()

    def compute():
        loads = _suite_loads(MEDIABENCH2)
        rows = []
        for name, addresses in loads.items():
            distribution = analyzer.run_length_distribution(addresses, 0)
            rows.append([name] + [distribution[bucket] for bucket in RUN_LENGTH_BUCKETS])
        return rows

    rows = compute()
    print("\nFig. 1 (stacked bars) — MB2 run-length distribution, 0 intermediates")
    print(format_table(["benchmark"] + list(RUN_LENGTH_BUCKETS), rows))

    for row in rows:
        assert sum(row[1:]) == pytest.approx(1.0)
        # Media benchmarks are dominated by long same-page runs (light bars).
        assert row[-1] + row[-2] > row[1]
