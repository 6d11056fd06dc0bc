"""Analysis utilities: locality studies, sweep results and reporting.

This package hosts the code that turns raw simulations into the paper's
figures and tables: the page/line locality analysis behind Fig. 1 and the
motivation of Sec. III, the sweep results (configurations x benchmarks)
normalized as Fig. 4a/4b plots them, and small reporting helpers (geometric
means, text tables) shared by the benchmark harness and the examples.  The
sweeps themselves run on the campaign engine (:mod:`repro.campaign`).
"""

from repro.analysis.locality import (
    LocalityReport,
    PageLocalityAnalyzer,
    RUN_LENGTH_BUCKETS,
)
from repro.analysis.experiments import (
    BenchmarkRun,
    ExperimentResults,
)
from repro.analysis.reporting import (
    format_frontier,
    format_table,
    frontier_csv,
    geometric_mean,
    normalize,
)

__all__ = [
    "LocalityReport",
    "PageLocalityAnalyzer",
    "RUN_LENGTH_BUCKETS",
    "BenchmarkRun",
    "ExperimentResults",
    "format_frontier",
    "format_table",
    "frontier_csv",
    "geometric_mean",
    "normalize",
]
