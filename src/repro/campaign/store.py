"""Persistent campaign result store: one JSON record per simulated cell.

:class:`ResultStore` is the store the campaign engine talks to — ``put /
get / records`` in terms of :class:`CampaignCell` and
:class:`~repro.sim.simulator.SimulationResult` — and the base class of its
two kinds.  ``ResultStore(url)`` opens the store a URL addresses, as an
instance of the subclass its scheme names:

``json:path/to/dir`` (or a bare path)
    :class:`JsonStore` — a ``campaign.json`` manifest plus one
    ``cells/<key>.json`` file per completed cell, written atomically
    (temp file + ``os.replace``).
``sqlite:path/to/db``
    :class:`SqliteStore` — a single SQLite database in WAL mode, safe for
    concurrent writers from multiple processes.

Every record carries the cell identity (benchmark, suite, full configuration
fingerprint, trace length, warm-up, seed), its deterministic key and the
complete :class:`~repro.sim.simulator.SimulationResult` — counters, derived
stats and the per-structure energy report — so analyses can be rebuilt from
the store alone, without re-running any simulation.  Keys are pure functions
of the cell content and puts are atomic + idempotent, so the store is safe
to share between the worker processes of one sweep and between successive
sweeps: a re-run simply resumes from the cells that finished.  Both stores
hold the same text per record
(:func:`~repro.campaign.backends.canonical_json`), so a cell is byte-identical
whichever store computed it.

:func:`result_from_dict` is the one path from a stored record (or a pool
chunk's payload) to a result.  It interns every stat, energy-structure and
configuration name (:func:`sys.intern`, the interpreter's one table of
shared strings), so all results decoded in a process share one string per
distinct name instead of each holding the copies its own ``json.loads``
made.  A record that does not parse raises :class:`StoreReadError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import sys
import time
import uuid
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro.campaign.backends import (
    StoreConflictError,
    StoreReadError,
    StoreURLError,
    StoreWriteError,
    atomic_write_text,
    canonical_json,
    journal_path,
    parse_store_url,
)
from repro.campaign.spec import CampaignCell, CampaignSpec, config_to_dict
from repro.energy.accounting import EnergyReport, StructureEnergy
from repro.sim.simulator import SimulationResult
from repro.workloads.registry import workload_suite

__all__ = [
    "JsonStore",
    "ResultStore",
    "SqliteStore",
    "StoreConflictError",
    "StoreReadError",
    "StoreURLError",
    "StoreWriteError",
    "open_store",
    "result_from_dict",
    "result_to_dict",
]

#: tries at switching a freshly opened SQLite file to WAL (0.05 s apart)
_WAL_SWITCH_ATTEMPTS = 100

#: manifest bookkeeping keys the JSON store stamps into its manifest file;
#: stripped again by ``manifest()`` so callers see the pure campaign spec
_MANIFEST_META_KEYS = ("manifest_version", "manifest_writer")


def _strip_meta(manifest: Optional[dict]) -> Optional[dict]:
    """A manifest without the JSON store's bookkeeping keys."""
    if manifest is None:
        return None
    return {k: v for k, v in manifest.items() if k not in _MANIFEST_META_KEYS}


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

    ``ResultStore(url)`` returns a :class:`JsonStore` for ``json:DIR`` or a
    bare directory path and an :class:`SqliteStore` for ``sqlite:FILE``;
    each subclass also opens a URL of its own scheme, or a bare path.

    The public methods live here, and a subclass overrides none of
    ``put``, ``get``, ``record``, ``write_manifest`` and ``check_manifest``:
    perfbench's tracer times those five on this class, so an override would
    take that store's calls out of its ``store.*`` layers.  A subclass
    holds only the storage:

    * ``_read(key)``: one record's stored text (``str`` or ``bytes``), or
      ``None`` for a miss; ``_write(key, text)``: store one record's text,
      atomically;
    * ``keys()``: the stored keys, sorted; ``_pairs()``: ``(key, text)``
      of every record, in key order;
    * ``_write_manifest(manifest)``, ``manifest()`` and
      ``_check_manifest()``: write, read and check campaign manifests;
    * ``_removal(key)``: how to delete a record, for error messages;
    * ``root``: the directory sidecar artifacts (``dse.json``,
      ``frontier.csv``) live in.
    """

    #: URL scheme a subclass answers to
    scheme = ""

    def __new__(cls, url: Union[str, Path]) -> "ResultStore":
        if cls is ResultStore:
            cls = SqliteStore if parse_store_url(url)[0] == "sqlite" else JsonStore
        return super().__new__(cls)

    def __init__(self, url: Union[str, Path]) -> None:
        scheme, path = parse_store_url(url)
        if scheme != self.scheme and path != str(url):
            raise StoreURLError(f"{type(self).__name__} cannot open {str(url)!r}")
        #: the store directory (``json:``) or database file (``sqlite:``)
        self.path = Path(path)
        #: the canonical store URL addressing this store
        self.url = f"{self.scheme}:{self.path}"
        #: where this store's telemetry journal lives (may not exist yet)
        self.telemetry_path = journal_path(self.scheme, self.path)
        #: per-instance manifest writer token: one executor (or DSE engine)
        #: instance writes several manifests legitimately
        self._writer_token = uuid.uuid4().hex

    # ------------------------------------------------------------------
    def put(self, cell: CampaignCell, result: SimulationResult) -> str:
        """Persist one cell result; returns the cell key.

        An ``OSError`` from the write is raised as :class:`StoreWriteError`
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
            self._write(key, canonical_json(record))
        except OSError as error:
            raise StoreWriteError(f"store {self.url}: cannot write cell {key}: {error}") from error
        return key

    def get(self, cell: CampaignCell) -> Optional[SimulationResult]:
        """The stored result of ``cell``, or ``None`` if it has not run yet.

        A stored record that does not parse raises :class:`StoreReadError`."""
        key = cell.key()
        data = self._read(key)
        return None if data is None else result_from_dict(self._parse(key, data)["result"])

    def record(self, key: str) -> Optional[dict]:
        """The full stored record of ``key``, or ``None`` (serve fetch-cell).

        A key no stored record can have, such as one holding a NUL byte, is
        a miss too."""
        data = self._read(key)
        return None if data is None else self._parse(key, data)

    def records(self) -> Iterator[dict]:
        """Iterate over all persisted records, in key order."""
        for key, data in self._pairs():
            yield self._parse(key, data)

    def __len__(self) -> int:
        return len(self.keys())

    def _parse(self, key: str, data: Union[str, bytes]) -> dict:
        """The stored record ``data`` of ``key``, parsed; a record that does
        not parse raises :class:`StoreReadError`."""
        try:
            return json.loads(data)
        except ValueError as error:
            raise StoreReadError(
                f"store {self.url}: the record of cell {key} does not parse "
                f"({error}); {self._removal(key)} and the next run recomputes "
                "the cell"
            ) from error

    # ------------------------------------------------------------------
    def write_manifest(self, spec: CampaignSpec) -> None:
        """Record the campaign spec that produced (or extended) this store."""
        self._write_manifest(spec.describe())

    def check_manifest(self) -> None:
        """Fail loudly if a concurrent sweep clobbered this store's manifest."""
        self._check_manifest()

    def _check_manifest(self) -> None:
        """Nothing to check where no manifest write can be lost (SQLite)."""

    def close(self) -> None:
        """Release held resources (connections); safe to call twice."""


class JsonStore(ResultStore):
    """One JSON file per cell under ``<root>/cells/``, manifest alongside::

        <root>/
            campaign.json          # manifest of the campaign that (last) ran
            telemetry.jsonl        # append-only telemetry journal (opt-in)
            cells/
                <key>.json         # one record per completed cell

    Records are written atomically (:func:`atomic_write_text`: a staging
    file of its own per write, then ``os.replace``), so two writers of one
    key or of the manifest both succeed and the last rename wins.  The single
    manifest file makes concurrent manifest writes last-writer-wins; every
    write stamps a version counter and the store's writer token, and
    :meth:`check_manifest` fails loudly when another writer with *different
    content* clobbered ours (identical content is a harmless race — two
    sweeps of the same campaign agree on the manifest byte for byte).
    """

    scheme = "json"
    MANIFEST = "campaign.json"
    CELL_DIR = "cells"

    def __init__(self, url: Union[str, Path]) -> None:
        super().__init__(url)
        self.root = self.path
        self.cell_dir = self.root / self.CELL_DIR
        self.cell_dir.mkdir(parents=True, exist_ok=True)
        self._cell_prefix = f"{self.cell_dir}{os.sep}"
        self._written_manifest: Optional[dict] = None

    def _cell_path(self, key: str) -> str:
        return f"{self._cell_prefix}{key}.json"

    def _removal(self, key: str) -> str:
        return f"delete {self._cell_path(key)}"

    def _read(self, key: str) -> Optional[bytes]:
        try:
            with open(self._cell_path(key), "rb") as handle:
                return handle.read()
        except (FileNotFoundError, ValueError):
            # No record: the file is absent, or the key (``repro serve``
            # passes one from the request path) names no possible file,
            # such as one holding a NUL byte.
            return None

    def _write(self, key: str, text: str) -> None:
        atomic_write_text(Path(self._cell_path(key)), text)

    def keys(self) -> List[str]:
        """Keys of all persisted cells (sorted for determinism)."""
        return sorted(path.stem for path in self.cell_dir.glob("*.json"))

    def _pairs(self) -> Iterator[Tuple[str, bytes]]:
        for key in self.keys():
            data = self._read(key)
            if data is not None:  # not deleted since it was listed
                yield key, data

    # ------------------------------------------------------------------
    def _read_manifest_raw(self) -> Optional[dict]:
        path = self.root / self.MANIFEST
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def _write_manifest(self, manifest: dict) -> None:
        on_disk = self._read_manifest_raw()
        self._check_clobber(on_disk)
        version = int(on_disk.get("manifest_version", 0)) if on_disk else 0
        payload = dict(manifest)
        payload["manifest_version"] = version + 1
        payload["manifest_writer"] = self._writer_token
        atomic_write_text(self.root / self.MANIFEST, canonical_json(payload))
        self._written_manifest = dict(manifest)

    def manifest(self) -> Optional[dict]:
        """The stored campaign manifest, or ``None`` for a bare cell store."""
        return _strip_meta(self._read_manifest_raw())

    def _check_manifest(self) -> None:
        if self._written_manifest is None:
            return
        self._check_clobber(self._read_manifest_raw())

    def _check_clobber(self, on_disk: Optional[dict]) -> None:
        """Raise when a *different* manifest overwrote the one we wrote."""
        if self._written_manifest is None:
            return
        content = _strip_meta(on_disk)
        if on_disk is not None and on_disk.get("manifest_writer") == self._writer_token:
            return
        if content == self._written_manifest:
            return  # identical content: a harmless same-campaign race
        raise StoreConflictError(
            f"manifest conflict in {self.url}: another sweep overwrote "
            f"{self.root / self.MANIFEST} while this one was running "
            "(the json: backend keeps a single last-writer-wins manifest "
            "file; use an sqlite: store for concurrent campaigns)"
        )


class SqliteStore(ResultStore):
    """All cells in one SQLite database, journaled in WAL mode.

    Cell records are stored as their canonical JSON text (the same bytes a
    :class:`JsonStore` writes), keyed by cell key, with idempotent upserts
    — concurrent writers computing the same cell store identical text, so
    overlapping sweeps from several processes converge on exactly the
    store a serial run produces.

    Manifests are kept one row per ``(campaign name, content digest)``:
    unlike the single ``campaign.json`` file, a second campaign (or a
    concurrently re-run one) never erases the first — :meth:`manifest`
    returns the most recently written row.

    The telemetry journal stays a sidecar JSON-lines file next to the
    database (``<db>.telemetry.jsonl``): it is append-only operational
    history with its own atomic-append contract, and keeping it a plain
    file preserves ``repro obs``'s ability to read journals without the
    store layer.
    """

    scheme = "sqlite"
    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS cells (
        key    TEXT PRIMARY KEY,
        record TEXT NOT NULL
    );
    CREATE TABLE IF NOT EXISTS manifests (
        name       TEXT NOT NULL,
        digest     TEXT NOT NULL,
        manifest   TEXT NOT NULL,
        version    INTEGER NOT NULL,
        writer     TEXT NOT NULL,
        updated_at REAL NOT NULL,
        PRIMARY KEY (name, digest)
    );
    """

    def __init__(self, url: Union[str, Path]) -> None:
        super().__init__(url)
        self.root = self.path.parent
        self.root.mkdir(parents=True, exist_ok=True)
        #: connections are per (instance, pid): a forked pool worker that
        #: inherited this object must never reuse the parent's handle
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self._connect()

    def _connect(self) -> sqlite3.Connection:
        if self._conn is not None and self._conn_pid == os.getpid():
            return self._conn
        conn = sqlite3.connect(
            str(self.path), timeout=30.0, isolation_level=None, check_same_thread=False
        )
        # Processes opening a fresh file at the same moment race to switch
        # it to WAL; SQLite answers the loser "database is locked" at once
        # (deadlock avoidance skips the busy timeout), so retry the switch.
        for attempt in range(_WAL_SWITCH_ATTEMPTS):
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or attempt == _WAL_SWITCH_ATTEMPTS - 1:
                    raise
                time.sleep(0.05)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(self._SCHEMA)
        self._conn = conn
        self._conn_pid = os.getpid()
        return conn

    def close(self) -> None:
        if self._conn is not None and self._conn_pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._conn_pid = None

    # ------------------------------------------------------------------
    def _removal(self, key: str) -> str:
        return f"delete its row from the cells table (key = '{key}')"

    def _read(self, key: str) -> Optional[str]:
        row = self._connect().execute(
            "SELECT record FROM cells WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def _write(self, key: str, text: str) -> None:
        # One implicit transaction per statement (isolation_level=None +
        # single execute): atomic under WAL, and the upsert makes re-writes
        # of the same content-keyed record idempotent across processes.
        self._connect().execute(
            "INSERT INTO cells (key, record) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET record = excluded.record",
            (key, text),
        )

    def keys(self) -> List[str]:
        """Keys of all persisted cells (sorted for determinism)."""
        rows = self._connect().execute("SELECT key FROM cells ORDER BY key").fetchall()
        return [row[0] for row in rows]

    def __len__(self) -> int:
        # Counted in SQLite: `repro serve` answers every health and store
        # request with the count, and fetching every key to count them
        # grows with the store.
        return self._connect().execute("SELECT COUNT(*) FROM cells").fetchone()[0]

    def _pairs(self) -> List[Tuple[str, str]]:
        return self._connect().execute(
            "SELECT key, record FROM cells ORDER BY key"
        ).fetchall()

    # ------------------------------------------------------------------
    def _write_manifest(self, manifest: dict) -> None:
        name = str(manifest.get("name", ""))
        text = json.dumps(manifest, sort_keys=True)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]
        conn = self._connect()
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT COALESCE(MAX(version), 0) FROM manifests WHERE name = ?",
                (name,),
            ).fetchone()
            conn.execute(
                "INSERT INTO manifests (name, digest, manifest, version, writer, "
                "updated_at) VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(name, digest) DO UPDATE SET "
                "updated_at = excluded.updated_at, writer = excluded.writer",
                (name, digest, text, int(row[0]) + 1, self._writer_token, time.time()),
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def manifest(self) -> Optional[dict]:
        """The most recently written campaign manifest, or ``None``."""
        row = self._connect().execute(
            "SELECT manifest FROM manifests ORDER BY updated_at DESC, rowid DESC "
            "LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        return json.loads(row[0])

    def manifests(self) -> List[dict]:
        """Every stored manifest, most recent first (nothing is ever lost)."""
        rows = self._connect().execute(
            "SELECT manifest FROM manifests ORDER BY updated_at DESC, rowid DESC"
        ).fetchall()
        return [json.loads(row[0]) for row in rows]


def open_store(
    store: Union[None, str, Path, ResultStore],
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
