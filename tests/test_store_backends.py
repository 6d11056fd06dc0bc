"""Tests for the campaign stores: URL parsing, the store contract on both
schemes, manifest-conflict detection, multi-process SQLite writes, and the
store methods perfbench's tracer times."""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.backends import StoreConflictError, StoreURLError, parse_store_url
from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import CampaignCell, CampaignSpec, campaign_preset
from repro.campaign.store import JsonStore, ResultStore, SqliteStore, open_store
from repro.energy.accounting import EnergyReport, StructureEnergy
from repro.sim.config import SimulationConfig
from repro.sim.simulator import SimulationResult

ROOT = Path(__file__).resolve().parents[1]

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

    def test_result_store_opens_the_subclass_its_scheme_names(self, tmp_path):
        stores = [
            ResultStore(f"json:{tmp_path / 'a'}"),
            ResultStore(tmp_path / "b"),
            ResultStore(f"sqlite:{tmp_path / 'c.db'}"),
            JsonStore(tmp_path / "d"),
            SqliteStore(f"sqlite:{tmp_path / 'e.db'}"),
        ]
        try:
            assert [type(store) for store in stores] == [
                JsonStore, JsonStore, SqliteStore, JsonStore, SqliteStore
            ]
            assert stores[0].url == f"json:{tmp_path / 'a'}"
            assert stores[1].url == f"json:{tmp_path / 'b'}"
            assert stores[2].url == f"sqlite:{tmp_path / 'c.db'}"
            assert stores[2].root == tmp_path and stores[0].root == tmp_path / "a"
        finally:
            for store in stores:
                store.close()

    def test_a_subclass_refuses_the_other_scheme(self, tmp_path):
        with pytest.raises(StoreURLError):
            JsonStore(f"sqlite:{tmp_path / 'a.db'}")
        with pytest.raises(StoreURLError):
            SqliteStore(f"json:{tmp_path / 'b'}")
        assert not (tmp_path / "a.db").exists()


class TestOpenStore:
    def test_open_store_coerces_urls_paths_and_stores(self, tmp_path):
        assert open_store(None) is None
        store = open_store(f"sqlite:{tmp_path / 's.db'}")
        assert isinstance(store, ResultStore)
        assert open_store(store) is store
        store.close()
        json_store = open_store(tmp_path / "plain")
        assert isinstance(json_store, JsonStore)
        json_store.close()


def cell_fixture(benchmark="gzip"):
    return CampaignCell(benchmark, CONFIGS[0], INSTRUCTIONS)


def result_fixture(cycles=123):
    """A hand-built result: the store keeps whatever it is given."""
    return SimulationResult(
        config_name="Base1ldst",
        cycles=cycles,
        instructions=INSTRUCTIONS,
        loads=200,
        stores=100,
        energy=EnergyReport(
            cycles=cycles, structures={"l1": StructureEnergy(dynamic_pj=1.5, leakage_pj=0.25)}
        ),
        stats={"l1.load": 200.0, "l1.load_miss": 3.0},
    )


class TestStoreContract:
    @pytest.fixture(params=["json", "sqlite"])
    def store(self, request, tmp_path):
        store = ResultStore(f"{request.param}:{tmp_path / 'store'}")
        yield store
        store.close()

    def test_put_get_roundtrip(self, store):
        cell, result = cell_fixture(), result_fixture()
        assert store.get(cell) is None and store.record(cell.key()) is None
        # A key no file can be named after (repro serve passes keys from
        # the request path) is a miss too, not an error.
        assert store.record("bad\x00key") is None
        key = store.put(cell, result)
        assert key == cell.key()
        assert store.get(cell) == result
        record = store.record(key)
        assert record["key"] == key and record["benchmark"] == "gzip"
        assert len(store) == 1
        assert store.keys() == [key]
        assert list(store.records()) == [record]

    def test_put_is_idempotent_and_last_write_wins(self, store):
        cell = cell_fixture()
        store.put(cell, result_fixture(cycles=1))
        store.put(cell, result_fixture(cycles=2))
        assert len(store) == 1
        assert store.get(cell).cycles == 2

    def test_len_counts_the_keys(self, store):
        # SQLite counts in the database; both must agree with keys().
        assert len(store) == len(store.keys()) == 0
        for benchmark in ("gzip", "swim", "djpeg", "gzip"):
            store.put(cell_fixture(benchmark), result_fixture())
        assert len(store) == len(store.keys()) == 3

    def test_manifest_roundtrip(self, store):
        spec = small_spec()
        store.write_manifest(spec)
        assert store.manifest() == spec.describe()
        # Internal bookkeeping keys never leak into the returned manifest.
        assert "manifest_version" not in store.manifest()
        store.check_manifest()


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
        db = sqlite3.connect(sqlite_store.path)
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
        assert len(first.manifests()) == 2
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
        first = ResultStore(f"json:{tmp_path / 'store'}")
        second = ResultStore(f"json:{tmp_path / 'store'}")
        cell, result = cell_fixture(), result_fixture()
        self._inside_first_rename(monkeypatch, lambda: second.put(cell, result))
        first.put(cell, result)
        assert first.get(cell) == result
        assert first.keys() == [cell.key()]
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
            sqlite3,
            "connect",
            lambda *args, **kwargs: LosesTheWalSwitchOnce(connect(*args, **kwargs)),
        )
        store = ResultStore(f"sqlite:{tmp_path / 'fresh.db'}")
        assert refusals
        (mode,) = store._connect().execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        store.close()


#: run in a child process: perfbench's tracer wraps the classes for good
TRACED_SWEEPS = r"""
import json
import sys

from tracer import KEY, PARENT, Tracer, install

tracer = Tracer()
install(tracer)

from repro.campaign import JsonStore, ParallelExecutor, ResultStore, SqliteStore
from repro.campaign import campaign_preset

spec = campaign_preset("fig4-mini").with_overrides(benchmarks=("gzip",), instructions=200)
for url in sys.argv[1:]:
    store = ResultStore(url)
    for _ in range(2):  # the second run resumes: every get is a hit
        ParallelExecutor(jobs=1, store=store).run(spec)
    assert store.record(spec.cells()[0].key())["benchmark"] == "gzip"
    store.close()


def inside_a_get(span):
    while span[PARENT] is not None:
        span = tracer.spans[span[PARENT]]
        if span[KEY] == "store.get_s":
            return True
    return False


wrapped = ("put", "get", "record", "write_manifest", "check_manifest")
print(json.dumps({
    "counts": dict(tracer.counts),
    "spans": sorted({span[KEY] for span in tracer.spans}),
    "records_in_gets": sum(
        span[KEY] == "store.record_s" and inside_a_get(span) for span in tracer.spans
    ),
    "shared": all(
        getattr(JsonStore, name) is getattr(SqliteStore, name) is ResultStore.__dict__[name]
        for name in wrapped
    ),
}))
"""


class TestPerfbenchSeesEveryStoreLayer:
    """perfbench's tracer times ``put``, ``get``, ``record``,
    ``write_manifest`` and ``check_manifest`` by wrapping them in
    ``ResultStore.__dict__``: both stores' calls must reach those wrappers."""

    def test_traced_sweeps_record_every_store_span(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
        urls = [f"json:{tmp_path / 'store'}", f"sqlite:{tmp_path / 'store.db'}"]
        completed = subprocess.run(
            [sys.executable, "-c", TRACED_SWEEPS, *urls],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        traced = json.loads(completed.stdout.splitlines()[-1])
        cells = len(campaign_preset("fig4-mini").configurations)
        # Per store: one fresh run (misses, puts) and one resumed run (hits).
        assert traced["counts"]["store.puts"] == 2 * cells
        assert traced["counts"]["store.gets"] == 4 * cells
        assert traced["counts"]["store.get_hits"] == 2 * cells
        for span in (
            "store.put_s",
            "store.get_s",
            "store.record_s",
            "store.manifest_s",
            "store.serialize_s",
            "store.deserialize_s",
        ):
            assert span in traced["spans"]
        assert traced["records_in_gets"] == 0
        assert traced["shared"]
