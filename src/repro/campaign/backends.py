"""Pluggable campaign store backends behind one URL-addressed interface.

The campaign layer persists one JSON-able record per simulated cell, keyed
by the cell's content hash.  :class:`StoreBackend` is the storage contract
extracted from the original directory-backed ``ResultStore``:

``get / put / keys / iterate``
    Record access by cell key.  ``put`` must be **atomic** (a crashed writer
    never leaves a truncated record) and **idempotent** (cell records are
    pure functions of the cell content, so double-writes are harmless and
    concurrent writers storing the same key store the same bytes).
``write_manifest / manifest / check_manifest``
    Campaign-manifest bookkeeping.  The JSON backend holds a single
    manifest file, so concurrent sweeps of *different* campaigns clobber
    each other last-writer-wins — ``check_manifest`` detects that and fails
    loudly with :class:`StoreConflictError`.  The SQLite backend resolves
    the conflict properly: manifests live in a table keyed by
    ``(campaign name, content digest)``, so no write ever erases another.

Backends are addressed by **store URL**:

``json:path/to/dir`` (or a bare path)
    :class:`JsonDirectoryBackend` — the original one-JSON-file-per-cell
    directory layout, unchanged on disk, so stores written before this
    interface existed keep resuming.
``sqlite:path/to/db``
    :class:`SqliteBackend` — a single SQLite database in WAL mode, safe for
    concurrent writers from multiple processes (the WAL allows one writer
    and many readers without blocking; writers queue on the database lock
    with a generous busy timeout).

:func:`parse_store_url` and :func:`repro.campaign.store.open_store` turn a
URL into a live store everywhere a ``--store`` flag or ``store=`` kwarg
exists (sweep / dse / executor / serve / telemetry-journal placement).
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import time
import uuid
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union


class StoreURLError(ValueError):
    """An unparseable or unsupported store URL (a usage error: exit 2)."""


class StoreConflictError(RuntimeError):
    """Concurrent writers clobbered each other's campaign manifest."""


class StoreWriteError(OSError):
    """A campaign's own write failed: a cell record into its store or a line
    into its telemetry journal.  The message names the store (or journal);
    the failed call's error is the ``__cause__``."""


#: recognised store URL schemes, in documentation order
STORE_SCHEMES: Tuple[str, ...] = ("json", "sqlite")

#: tries at switching a freshly opened SQLite file to WAL (0.05 s apart)
_WAL_SWITCH_ATTEMPTS = 100

#: manifest bookkeeping keys the backends stamp into stored manifests;
#: stripped again by ``manifest()`` so callers see the pure campaign spec
_MANIFEST_META_KEYS = ("manifest_version", "manifest_writer")


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically: stage it, then ``os.replace``.

    Each write stages under a name no other write uses,
    ``<stem>.<random hex>.tmp``, so two writers of one path (two processes,
    or two stores of one directory in one process) never rename each
    other's staging file away; the last rename wins.
    """
    tmp = path.with_name(f"{path.stem}.{uuid.uuid4().hex}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def parse_store_url(url: Union[str, Path]) -> Tuple[str, str]:
    """Split a store URL into ``(scheme, path)``.

    ``json:DIR`` and ``sqlite:FILE`` select a backend explicitly; a bare
    path (no scheme) keeps the historical meaning — a JSON campaign
    directory.  Unknown schemes raise :class:`StoreURLError` naming the
    supported ones, so a typo never silently creates a directory called
    ``sqlit:foo``.
    """
    text = str(url)
    if not text:
        raise StoreURLError(
            f"empty store URL; expected <scheme>:<path> with scheme one of "
            f"{', '.join(STORE_SCHEMES)} (or a bare directory path)"
        )
    scheme, sep, rest = text.partition(":")
    if not sep:
        return "json", text
    if not re.match(r"^[A-Za-z][A-Za-z0-9+.-]*$", scheme):
        # "./results:odd" — the colon is part of a path, not a scheme.
        return "json", text
    if scheme not in STORE_SCHEMES:
        raise StoreURLError(
            f"unsupported store scheme {scheme!r} in {text!r}: supported "
            f"schemes are {', '.join(f'{s}:' for s in STORE_SCHEMES)} "
            "(a bare path selects json:)"
        )
    if not rest:
        raise StoreURLError(f"store URL {text!r} has no path after the scheme")
    return scheme, rest


def journal_path(scheme: str, path: Union[str, Path]) -> Path:
    """Where the telemetry journal of the ``scheme`` store at ``path``
    lives (it may not exist yet): ``telemetry.jsonl`` inside a JSON store's
    directory, ``<db>.telemetry.jsonl`` beside an SQLite database."""
    path = Path(path)
    if scheme == "sqlite":
        return path.with_name(path.name + ".telemetry.jsonl")
    return path / "telemetry.jsonl"


def backend_for_url(url: Union[str, Path]) -> "StoreBackend":
    """Build the backend a store URL addresses."""
    scheme, path = parse_store_url(url)
    if scheme == "sqlite":
        return SqliteBackend(path)
    return JsonDirectoryBackend(path)


def _strip_meta(manifest: Optional[dict]) -> Optional[dict]:
    """A manifest without the backend bookkeeping keys (content identity)."""
    if manifest is None:
        return None
    return {k: v for k, v in manifest.items() if k not in _MANIFEST_META_KEYS}


def _dump_record(record: dict) -> str:
    """The canonical serialized form of a cell record.

    Both backends store exactly this text, so a cell computed against a
    JSON store and one computed against an SQLite store are bit-identical
    on disk — the acceptance contract of the pluggable-backend redesign.
    """
    return json.dumps(record, indent=1, sort_keys=True)


class StoreBackend(ABC):
    """Storage contract behind :class:`repro.campaign.store.ResultStore`."""

    #: URL scheme this backend answers to
    scheme: str = ""

    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def url(self) -> str:
        """The canonical store URL addressing this backend."""

    @property
    @abstractmethod
    def artifact_dir(self) -> Path:
        """Directory for sidecar artifacts (``dse.json``, ``frontier.csv``)."""

    @property
    @abstractmethod
    def telemetry_path(self) -> Path:
        """Where this store's telemetry journal lives (may not exist yet)."""

    # ------------------------------------------------------------------
    @abstractmethod
    def get(self, key: str) -> Optional[dict]:
        """The stored record of ``key``, or ``None``."""

    @abstractmethod
    def put(self, key: str, record: dict) -> None:
        """Persist one cell record atomically (idempotent on re-write)."""

    @abstractmethod
    def keys(self) -> List[str]:
        """Keys of all persisted cells (sorted for determinism)."""

    @abstractmethod
    def iterate(self) -> Iterator[dict]:
        """Iterate over all persisted records, in key order."""

    # ------------------------------------------------------------------
    @abstractmethod
    def write_manifest(self, manifest: dict) -> None:
        """Record the campaign manifest that produced (or extended) the store."""

    @abstractmethod
    def manifest(self) -> Optional[dict]:
        """The last stored campaign manifest, or ``None`` for a bare store."""

    def check_manifest(self) -> None:
        """Verify this writer's manifest survived; raise on a lost conflict.

        The base implementation is a no-op — backends whose manifest
        storage cannot lose writes (SQLite) need no check.
        """

    def close(self) -> None:
        """Release any held resources (connections); safe to call twice."""

    def __len__(self) -> int:
        return len(self.keys())


# ----------------------------------------------------------------------
# JSON directory backend (the original on-disk layout, unchanged)
# ----------------------------------------------------------------------
class JsonDirectoryBackend(StoreBackend):
    """One JSON file per cell under ``<root>/cells/``, manifest alongside.

    Layout (identical to the pre-interface ``ResultStore``, so existing
    campaign directories keep resuming)::

        <root>/
            campaign.json          # manifest of the campaign that (last) ran
            telemetry.jsonl        # append-only telemetry journal (opt-in)
            cells/
                <key>.json         # one record per completed cell

    Records are written atomically (:func:`atomic_write_text`: a staging
    file of its own per write, then ``os.replace``), so two writers of one
    key or of the manifest both succeed and the last rename wins.  The single
    manifest file makes concurrent manifest writes last-writer-wins; every
    write stamps a version counter and a per-instance writer token, and
    :meth:`check_manifest` fails loudly when another writer with *different
    content* clobbered ours (identical content is a harmless race — two
    sweeps of the same campaign agree on the manifest byte for byte).
    """

    scheme = "json"
    MANIFEST = "campaign.json"
    CELL_DIR = "cells"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.cell_dir = self.root / self.CELL_DIR
        self.cell_dir.mkdir(parents=True, exist_ok=True)
        #: per-instance writer token: one executor (or DSE engine) instance
        #: writes several manifests legitimately; other instances conflict
        self._writer_token = uuid.uuid4().hex
        self._written_manifest: Optional[dict] = None

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"json:{self.root}"

    @property
    def artifact_dir(self) -> Path:
        return self.root

    @property
    def telemetry_path(self) -> Path:
        return journal_path(self.scheme, self.root)

    # ------------------------------------------------------------------
    def _cell_path(self, key: str) -> Path:
        return self.cell_dir / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        try:
            text = self._cell_path(key).read_text()
        except (FileNotFoundError, ValueError):
            # No record: the file is absent, or the key (``repro serve``
            # passes one from the request path) names no possible file,
            # such as one holding a NUL byte.
            return None
        return json.loads(text)

    def put(self, key: str, record: dict) -> None:
        atomic_write_text(self._cell_path(key), _dump_record(record))

    def keys(self) -> List[str]:
        return sorted(path.stem for path in self.cell_dir.glob("*.json"))

    def iterate(self) -> Iterator[dict]:
        for key in self.keys():
            yield json.loads(self._cell_path(key).read_text())

    # ------------------------------------------------------------------
    def _read_manifest_raw(self) -> Optional[dict]:
        path = self.root / self.MANIFEST
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def write_manifest(self, manifest: dict) -> None:
        on_disk = self._read_manifest_raw()
        self._check_clobber(on_disk)
        version = int(on_disk.get("manifest_version", 0)) if on_disk else 0
        payload = dict(manifest)
        payload["manifest_version"] = version + 1
        payload["manifest_writer"] = self._writer_token
        atomic_write_text(
            self.root / self.MANIFEST, json.dumps(payload, indent=1, sort_keys=True)
        )
        self._written_manifest = dict(manifest)

    def manifest(self) -> Optional[dict]:
        return _strip_meta(self._read_manifest_raw())

    def check_manifest(self) -> None:
        """Fail loudly if another writer replaced our manifest mid-sweep."""
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


# ----------------------------------------------------------------------
# SQLite backend (WAL: safe for concurrent multi-process writers)
# ----------------------------------------------------------------------
class SqliteBackend(StoreBackend):
    """All cells in one SQLite database, journaled in WAL mode.

    Cell records are stored as their canonical JSON text (the same bytes
    the directory backend writes), keyed by cell key, with idempotent
    upserts — concurrent writers computing the same cell store identical
    text, so overlapping sweeps from several processes converge on exactly
    the store a serial run produces.

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

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._writer_token = uuid.uuid4().hex
        #: connections are per (instance, pid): a forked pool worker that
        #: inherited this object must never reuse the parent's handle
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self._connect()

    # ------------------------------------------------------------------
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
    @property
    def url(self) -> str:
        return f"sqlite:{self.path}"

    @property
    def artifact_dir(self) -> Path:
        return self.path.parent

    @property
    def telemetry_path(self) -> Path:
        return journal_path(self.scheme, self.path)

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        row = self._connect().execute(
            "SELECT record FROM cells WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        return json.loads(row[0])

    def put(self, key: str, record: dict) -> None:
        # One implicit transaction per statement (isolation_level=None +
        # single execute): atomic under WAL, and the upsert makes re-writes
        # of the same content-keyed record idempotent across processes.
        self._connect().execute(
            "INSERT INTO cells (key, record) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET record = excluded.record",
            (key, _dump_record(record)),
        )

    def keys(self) -> List[str]:
        rows = self._connect().execute("SELECT key FROM cells ORDER BY key").fetchall()
        return [row[0] for row in rows]

    def __len__(self) -> int:
        # Counted in SQLite: `repro serve` answers every health and store
        # request with the count, and fetching every key to count them
        # grows with the store.
        return self._connect().execute("SELECT COUNT(*) FROM cells").fetchone()[0]

    def iterate(self) -> Iterator[dict]:
        rows = self._connect().execute(
            "SELECT record FROM cells ORDER BY key"
        ).fetchall()
        for row in rows:
            yield json.loads(row[0])

    # ------------------------------------------------------------------
    def write_manifest(self, manifest: dict) -> None:
        name = str(manifest.get("name", ""))
        text = json.dumps(manifest, sort_keys=True)
        import hashlib

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
