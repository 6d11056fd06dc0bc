"""Sweep campaign engine: declarative grids, parallel execution, persistence.

The campaign subsystem scales the paper's sweeps (Fig. 4, Sec. VI-D) beyond
one process and one session:

* :mod:`repro.campaign.spec` — declarative :class:`CampaignSpec` grids with
  named presets and deterministic per-cell content hashes;
* :mod:`repro.campaign.store` — :class:`ResultStore`, one atomic JSON record
  per completed cell under a campaign directory;
* :mod:`repro.campaign.executor` — :class:`ParallelExecutor`, process-pool
  fan-out with per-worker trace caches, store-based resume and serial
  fallback;
* :mod:`repro.campaign.aggregate` — rebuild
  :class:`~repro.analysis.experiments.ExperimentResults` views from a store
  without re-running anything.

Quick start::

    from repro.campaign import CampaignSpec, ParallelExecutor, ResultStore
    from repro.campaign import campaign_preset, results_from_store

    store = ResultStore("results/fig4")
    executor = ParallelExecutor(jobs=4, store=store)
    executor.run(campaign_preset("fig4"))       # resumable: re-runs skip cells
    print(results_from_store(store).geomean_normalized_cycles("Base1ldst"))
"""

from repro.campaign.aggregate import (
    results_from_store,
    summarize_results,
    summarize_store,
)
from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import (
    PRESET_NAMES,
    CampaignCell,
    CampaignSpec,
    campaign_preset,
    cell_key,
    config_from_dict,
    config_to_dict,
)
from repro.campaign.store import (
    ResultStore,
    StoreBackend,
    StoreConflictError,
    StoreURLError,
    StoreWriteError,
    open_store,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "CampaignCell",
    "CampaignSpec",
    "ParallelExecutor",
    "ResultStore",
    "StoreBackend",
    "StoreConflictError",
    "StoreURLError",
    "StoreWriteError",
    "open_store",
    "PRESET_NAMES",
    "campaign_preset",
    "cell_key",
    "config_from_dict",
    "config_to_dict",
    "result_from_dict",
    "result_to_dict",
    "results_from_store",
    "summarize_results",
    "summarize_store",
]
