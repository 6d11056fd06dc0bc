"""Persistent campaign result store: one JSON record per simulated cell.

:class:`ResultStore` is the cell-level API the campaign engine talks to —
``put / get / records`` in terms of :class:`CampaignCell` and
:class:`~repro.sim.simulator.SimulationResult`.  Storage itself lives behind
the pluggable :class:`~repro.campaign.backends.StoreBackend` interface,
selected by store URL:

``json:path/to/dir`` (or a bare path)
    The original directory layout — ``campaign.json`` manifest plus one
    ``cells/<key>.json`` file per completed cell, written atomically
    (temp file + ``os.replace``).  Unchanged on disk, so stores written
    before the backend interface existed keep resuming.
``sqlite:path/to/db``
    A single SQLite database in WAL mode, safe for concurrent writers
    from multiple processes.

Every record carries the cell identity (benchmark, suite, full configuration
fingerprint, trace length, warm-up, seed), its deterministic key and the
complete :class:`~repro.sim.simulator.SimulationResult` — counters, derived
stats and the per-structure energy report — so analyses can be rebuilt from
the store alone, without re-running any simulation.  Keys are pure functions
of the cell content and puts are atomic + idempotent, so the store is safe
to share between the worker processes of one sweep and between successive
sweeps: a re-run simply resumes from the cells that finished.

:func:`result_from_dict` is the one path from a stored record (or a pool
chunk's payload) to a result.  It interns every stat, energy-structure and
configuration name (:func:`sys.intern`, the interpreter's one table of
shared strings), so all results decoded in a process share one string per
distinct name instead of each holding the copies its own ``json.loads``
made.  A record that does not parse raises :class:`StoreReadError`.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterator, List, Optional, Union

from repro.campaign.backends import (
    StoreBackend,
    StoreConflictError,
    StoreReadError,
    StoreURLError,
    StoreWriteError,
    backend_for_url,
)
from repro.campaign.spec import CampaignCell, CampaignSpec, config_to_dict
from repro.energy.accounting import EnergyReport, StructureEnergy
from repro.sim.simulator import SimulationResult
from repro.workloads.registry import workload_suite

__all__ = [
    "ResultStore",
    "StoreBackend",
    "StoreConflictError",
    "StoreReadError",
    "StoreURLError",
    "StoreWriteError",
    "open_store",
    "result_from_dict",
    "result_to_dict",
]


# ----------------------------------------------------------------------
# Result (de)serialization
# ----------------------------------------------------------------------
def result_to_dict(result: SimulationResult) -> dict:
    """JSON-able dictionary capturing a complete :class:`SimulationResult`."""
    return {
        "config_name": result.config_name,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "loads": result.loads,
        "stores": result.stores,
        "stats": dict(result.stats),
        "energy": {
            "cycles": result.energy.cycles,
            "structures": {
                name: {"dynamic_pj": item.dynamic_pj, "leakage_pj": item.leakage_pj}
                for name, item in result.energy.structures.items()
            },
        },
    }


def result_from_dict(data: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict` output.

    Names are interned, so every decoded result shares one string per
    name; values, key order and equality are those of ``data``."""
    intern = sys.intern
    energy = EnergyReport(
        cycles=data["energy"]["cycles"],
        structures={
            intern(name): StructureEnergy(
                dynamic_pj=item["dynamic_pj"], leakage_pj=item["leakage_pj"]
            )
            for name, item in data["energy"]["structures"].items()
        },
    )
    return SimulationResult(
        config_name=intern(data["config_name"]),
        cycles=data["cycles"],
        instructions=data["instructions"],
        loads=data["loads"],
        stores=data["stores"],
        energy=energy,
        stats={intern(name): value for name, value in data["stats"].items()},
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ResultStore:
    """Cell-level store of campaign results, keyed by content hash.

    Construct from a store URL (``json:dir``, ``sqlite:db``), a bare
    directory path (historical behaviour: a JSON campaign directory), or a
    ready-made :class:`StoreBackend`.
    """

    def __init__(self, root: Union[str, Path, StoreBackend]) -> None:
        if isinstance(root, StoreBackend):
            self.backend = root
        else:
            self.backend = backend_for_url(root)

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """The canonical store URL addressing this store's backend."""
        return self.backend.url

    @property
    def root(self) -> Path:
        """Directory sidecar artifacts live in (the store directory for
        ``json:``, the database's parent directory for ``sqlite:``)."""
        return self.backend.artifact_dir

    @property
    def cell_dir(self) -> Path:
        """The per-cell JSON directory (``json:`` backend only)."""
        cell_dir = getattr(self.backend, "cell_dir", None)
        if cell_dir is None:
            raise AttributeError(
                f"store backend {self.backend.scheme}: keeps no cell directory"
            )
        return cell_dir

    @property
    def telemetry_path(self) -> Path:
        """Where this store's telemetry journal lives (may not exist yet)."""
        return self.backend.telemetry_path

    # ------------------------------------------------------------------
    def put(self, cell: CampaignCell, result: SimulationResult) -> str:
        """Persist one cell result; returns the cell key.

        A backend's ``OSError`` is raised as :class:`StoreWriteError`
        naming this store."""
        key = cell.key()
        record = {
            "key": key,
            "benchmark": cell.benchmark,
            "suite": workload_suite(cell.benchmark),
            "config_name": cell.config.name,
            "config": config_to_dict(cell.config),
            "instructions": cell.instructions,
            "warmup_fraction": cell.warmup_fraction,
            "seed": cell.seed,
            "result": result_to_dict(result),
        }
        if cell.trace_hash:
            record["trace_hash"] = cell.trace_hash
        try:
            self.backend.put(key, record)
        except OSError as error:
            raise StoreWriteError(f"store {self.url}: cannot write cell {key}: {error}") from error
        return key

    def get(self, cell: CampaignCell) -> Optional[SimulationResult]:
        """The stored result of ``cell``, or ``None`` if it has not run yet.

        A stored record that does not parse raises :class:`StoreReadError`."""
        record = self.backend.get(cell.key())
        if record is None:
            return None
        return result_from_dict(record["result"])

    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        """Keys of all persisted cells (sorted for determinism)."""
        return self.backend.keys()

    def __len__(self) -> int:
        return len(self.backend)

    def records(self) -> Iterator[dict]:
        """Iterate over all persisted records, in key order."""
        return self.backend.iterate()

    def record(self, key: str) -> Optional[dict]:
        """The full stored record of ``key``, or ``None`` (serve fetch-cell)."""
        return self.backend.get(key)

    # ------------------------------------------------------------------
    def write_manifest(self, spec: CampaignSpec) -> None:
        """Record the campaign spec that produced (or extended) this store."""
        self.backend.write_manifest(spec.describe())

    def manifest(self) -> Optional[dict]:
        """The stored campaign manifest, or ``None`` for a bare cell store."""
        return self.backend.manifest()

    def check_manifest(self) -> None:
        """Fail loudly if a concurrent sweep clobbered this store's manifest."""
        self.backend.check_manifest()

    def close(self) -> None:
        """Release backend resources (connections); safe to call twice."""
        self.backend.close()


def open_store(
    store: Union[None, str, Path, StoreBackend, ResultStore],
) -> Optional[ResultStore]:
    """Coerce any ``store=`` value into a live :class:`ResultStore`.

    ``None`` passes through (no persistence), an existing :class:`ResultStore`
    is returned as-is, and strings/paths are parsed as store URLs — so every
    ``--store`` flag and ``store=`` kwarg accepts the same spellings.
    Raises :class:`StoreURLError` for an unsupported scheme.
    """
    if store is None:
        return None
    if isinstance(store, ResultStore):
        return store
    return ResultStore(store)
