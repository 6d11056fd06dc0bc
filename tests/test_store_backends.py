"""Tests for the pluggable store backends: URL parsing, the backend
contract, manifest-conflict detection and multi-process SQLite writes."""

from __future__ import annotations

import multiprocessing
import os
import sqlite3

import pytest

from repro.campaign.backends import (
    JsonDirectoryBackend,
    SqliteBackend,
    StoreConflictError,
    StoreURLError,
    backend_for_url,
    parse_store_url,
)
from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import CampaignSpec, campaign_preset
from repro.campaign.store import ResultStore, open_store
from repro.sim.config import SimulationConfig

INSTRUCTIONS = 600
CONFIGS = (SimulationConfig.base_1ldst(), SimulationConfig.malec())


def small_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        name="test",
        configurations=CONFIGS,
        benchmarks=("gzip", "swim"),
        instructions=INSTRUCTIONS,
        warmup_fraction=0.25,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestParseStoreUrl:
    def test_bare_path_selects_json(self):
        assert parse_store_url("results/fig4") == ("json", "results/fig4")

    def test_explicit_json_scheme(self):
        assert parse_store_url("json:results/fig4") == ("json", "results/fig4")

    def test_sqlite_scheme(self):
        assert parse_store_url("sqlite:results.db") == ("sqlite", "results.db")

    def test_windows_style_and_dotted_paths_are_json(self):
        # A single leading letter before ":" is still a scheme candidate,
        # but anything with path separators before the colon is a path.
        assert parse_store_url("./results:odd")[0] == "json"

    def test_unknown_scheme_is_loud(self):
        with pytest.raises(StoreURLError) as err:
            parse_store_url("postgres:cluster/db")
        message = str(err.value)
        assert "postgres" in message
        assert "json:" in message and "sqlite:" in message

    def test_empty_rest_is_rejected(self):
        with pytest.raises(StoreURLError):
            parse_store_url("sqlite:")
        with pytest.raises(StoreURLError):
            parse_store_url("")

    def test_backend_for_url(self, tmp_path):
        json_backend = backend_for_url(f"json:{tmp_path / 'a'}")
        sqlite_backend = backend_for_url(f"sqlite:{tmp_path / 'b.db'}")
        try:
            assert isinstance(json_backend, JsonDirectoryBackend)
            assert isinstance(sqlite_backend, SqliteBackend)
            assert json_backend.url.startswith("json:")
            assert sqlite_backend.url.startswith("sqlite:")
        finally:
            json_backend.close()
            sqlite_backend.close()


class TestOpenStore:
    def test_open_store_coerces_urls_paths_and_stores(self, tmp_path):
        assert open_store(None) is None
        store = open_store(f"sqlite:{tmp_path / 's.db'}")
        assert isinstance(store, ResultStore)
        assert open_store(store) is store
        store.close()
        json_store = open_store(tmp_path / "plain")
        assert isinstance(json_store.backend, JsonDirectoryBackend)
        json_store.close()


def record_fixture(key="k" * 20, cycles=123):
    return {
        "key": key,
        "benchmark": "gzip",
        "config_name": "Base1ldst",
        "result": {"cycles": cycles},
    }


class TestBackendContract:
    @pytest.fixture(params=["json", "sqlite"])
    def backend(self, request, tmp_path):
        if request.param == "json":
            backend = JsonDirectoryBackend(tmp_path / "store")
        else:
            backend = SqliteBackend(tmp_path / "store.db")
        yield backend
        backend.close()

    def test_put_get_has_roundtrip(self, backend):
        record = record_fixture()
        assert not backend.has(record["key"])
        backend.put(record["key"], record)
        assert backend.has(record["key"])
        assert backend.get(record["key"]) == record
        assert len(backend) == 1
        assert list(backend.keys()) == [record["key"]]
        assert list(backend.iterate()) == [record]

    def test_put_is_idempotent_and_last_write_wins(self, backend):
        key = "a" * 20
        backend.put(key, record_fixture(key, cycles=1))
        backend.put(key, record_fixture(key, cycles=2))
        assert len(backend) == 1
        assert backend.get(key)["result"]["cycles"] == 2

    def test_manifest_roundtrip(self, backend):
        manifest = {"name": "fig4", "benchmarks": ["gzip"], "instructions": 600}
        backend.write_manifest(manifest)
        assert backend.manifest() == manifest
        # Internal bookkeeping keys never leak into the returned manifest.
        assert "manifest_version" not in backend.manifest()
        backend.check_manifest()


class TestBitIdenticalAcrossBackends:
    def test_cells_serialize_identically(self, tmp_path):
        spec = small_spec(benchmarks=("gzip",))
        json_store = ResultStore(f"json:{tmp_path / 'json_store'}")
        sqlite_store = ResultStore(f"sqlite:{tmp_path / 'store.db'}")
        ParallelExecutor(jobs=1, store=json_store).run(spec)
        ParallelExecutor(jobs=1, store=sqlite_store).run(spec)
        json_records = {r["key"]: r for r in json_store.records()}
        sqlite_records = {r["key"]: r for r in sqlite_store.records()}
        assert json_records == sqlite_records
        # Byte-for-byte: the on-disk JSON cell equals the SQLite row text.
        db = sqlite3.connect(sqlite_store.backend.path)
        try:
            for key, text in db.execute("SELECT key, record FROM cells"):
                on_disk = (json_store.cell_dir / f"{key}.json").read_text()
                assert on_disk == text
        finally:
            db.close()
        json_store.close()
        sqlite_store.close()


class TestManifestConflicts:
    def test_json_detects_foreign_clobber(self, tmp_path):
        first = ResultStore(f"json:{tmp_path / 'store'}")
        first.write_manifest(small_spec())
        # A second, concurrent sweep writes a *different* manifest.
        second = ResultStore(f"json:{tmp_path / 'store'}")
        second.write_manifest(small_spec(instructions=900))
        with pytest.raises(StoreConflictError) as err:
            first.check_manifest()
        assert "sqlite" in str(err.value)
        first.close()
        second.close()

    def test_json_same_content_race_is_harmless(self, tmp_path):
        first = ResultStore(f"json:{tmp_path / 'store'}")
        second = ResultStore(f"json:{tmp_path / 'store'}")
        first.write_manifest(small_spec())
        second.write_manifest(small_spec())
        first.check_manifest()
        second.check_manifest()
        first.close()
        second.close()

    def test_json_rewrite_by_same_writer_is_fine(self, tmp_path):
        store = ResultStore(f"json:{tmp_path / 'store'}")
        store.write_manifest(small_spec())
        store.write_manifest(small_spec(instructions=900))
        store.check_manifest()
        store.close()

    def test_sqlite_keeps_every_manifest(self, tmp_path):
        first = ResultStore(f"sqlite:{tmp_path / 'store.db'}")
        second = ResultStore(f"sqlite:{tmp_path / 'store.db'}")
        first.write_manifest(small_spec())
        second.write_manifest(small_spec(instructions=900))
        # Nothing was lost: both manifests are retrievable and check passes.
        assert len(first.backend.manifests()) == 2
        first.check_manifest()
        second.check_manifest()
        assert second.manifest()["instructions"] == 900
        first.close()
        second.close()


class TestJsonInterleavedWriters:
    """Writer B's write runs inside writer A's rename of the same path (two
    overlapping sweeps of one grid on one ``json:`` store): both succeed."""

    @staticmethod
    def _inside_first_rename(monkeypatch, write_b):
        real_replace = os.replace

        def replace(src, dst):
            monkeypatch.setattr(os, "replace", real_replace)
            write_b()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)

    def test_same_key_puts_both_succeed(self, tmp_path, monkeypatch):
        first = JsonDirectoryBackend(tmp_path / "store")
        second = JsonDirectoryBackend(tmp_path / "store")
        record = record_fixture()
        self._inside_first_rename(monkeypatch, lambda: second.put(record["key"], record))
        first.put(record["key"], record)
        assert first.get(record["key"]) == record
        assert list(first.keys()) == [record["key"]]
        assert not list((tmp_path / "store").rglob("*.tmp"))

    def test_same_content_manifests_both_succeed(self, tmp_path, monkeypatch):
        first = ResultStore(f"json:{tmp_path / 'store'}")
        second = ResultStore(f"json:{tmp_path / 'store'}")
        self._inside_first_rename(
            monkeypatch, lambda: second.write_manifest(small_spec())
        )
        first.write_manifest(small_spec())
        first.check_manifest()
        second.check_manifest()
        assert first.manifest() == second.manifest()
        assert not list((tmp_path / "store").glob("*.tmp"))
        first.close()
        second.close()


def _sweep_worker(store_url: str, benchmarks, ready):
    """Run a fig4-mini slice against a shared SQLite store (child process)."""
    from repro.campaign.executor import ParallelExecutor
    from repro.campaign.spec import campaign_preset

    spec = campaign_preset("fig4-mini").with_overrides(benchmarks=tuple(benchmarks))
    ParallelExecutor(jobs=1, store=store_url).run(spec)
    ready.send("done")
    ready.close()


class TestConcurrentSqliteWriters:
    def test_two_processes_overlapping_grids_match_serial(self, tmp_path):
        """Two concurrent sweeps with overlapping benchmark sets produce a
        store bit-identical to one serial sweep of the union."""
        spec = campaign_preset("fig4-mini")
        benchmarks = spec.benchmarks
        assert len(benchmarks) >= 3
        # Overlap: both halves share the middle benchmark.
        half = len(benchmarks) // 2
        left = benchmarks[: half + 1]
        right = benchmarks[half:]

        serial_store = ResultStore(f"sqlite:{tmp_path / 'serial.db'}")
        ParallelExecutor(jobs=1, store=serial_store).run(spec)

        shared_url = f"sqlite:{tmp_path / 'shared.db'}"
        ctx = multiprocessing.get_context("spawn")
        pipes, workers = [], []
        for chunk in (left, right):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_sweep_worker, args=(shared_url, list(chunk), send)
            )
            proc.start()
            pipes.append(recv)
            workers.append(proc)
        for proc, recv in zip(workers, pipes):
            proc.join(timeout=300)
            assert proc.exitcode == 0
            assert recv.poll(1) and recv.recv() == "done"

        shared = ResultStore(shared_url)
        serial_records = {r["key"]: r for r in serial_store.records()}
        shared_records = {r["key"]: r for r in shared.records()}
        assert shared_records == serial_records
        shared.check_manifest()
        serial_store.close()
        shared.close()

    def test_open_retries_a_lost_wal_switch(self, tmp_path, monkeypatch):
        """Processes opening a fresh file at once race to switch it to WAL;
        the loser's "database is locked" is retried, not raised."""
        import repro.campaign.backends as backends

        connect = sqlite3.connect
        refusals = []

        class LosesTheWalSwitchOnce:
            def __init__(self, conn):
                self._conn = conn

            def execute(self, sql, *args):
                if sql == "PRAGMA journal_mode=WAL" and not refusals:
                    refusals.append(sql)
                    raise sqlite3.OperationalError("database is locked")
                return self._conn.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        monkeypatch.setattr(
            backends.sqlite3,
            "connect",
            lambda *args, **kwargs: LosesTheWalSwitchOnce(connect(*args, **kwargs)),
        )
        backend = SqliteBackend(tmp_path / "fresh.db")
        assert refusals
        (mode,) = backend._connect().execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        backend.close()
