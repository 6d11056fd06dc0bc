"""Tests for the campaign subsystem: spec hashing, store, executor, aggregate."""

from __future__ import annotations

import concurrent.futures
import errno
import json
import multiprocessing
import os
import pickle
import sqlite3
from dataclasses import replace

import pytest

import repro.campaign.executor as executor_mod
import repro.campaign.spec as spec_mod
from repro.campaign.aggregate import results_from_store, summarize_store
from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    campaign_preset,
    cell_key,
    config_from_dict,
    config_to_dict,
)
from repro.campaign.store import (
    ResultStore,
    StoreReadError,
    StoreWriteError,
    result_from_dict,
    result_to_dict,
)
from repro.obs import metrics as obs_metrics
from repro.obs.telemetry import TelemetryJournal
from repro.sim.config import MalecParameters, SimulationConfig
from repro.sim.simulator import Simulator, run_configuration
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace

INSTRUCTIONS = 600
WARMUP = 0.25
BENCHMARKS = ("gzip", "swim", "djpeg")
CONFIGS = (SimulationConfig.base_1ldst(), SimulationConfig.malec())


def small_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        name="test",
        configurations=CONFIGS,
        benchmarks=BENCHMARKS,
        instructions=INSTRUCTIONS,
        warmup_fraction=WARMUP,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def a_cell(**overrides) -> CampaignCell:
    defaults = dict(
        benchmark="gzip",
        config=CONFIGS[0],
        instructions=INSTRUCTIONS,
        warmup_fraction=WARMUP,
    )
    defaults.update(overrides)
    return CampaignCell(**defaults)


def assert_results_equal(left, right) -> None:
    assert left.config_name == right.config_name
    assert left.cycles == right.cycles
    assert left.instructions == right.instructions
    assert left.loads == right.loads
    assert left.stores == right.stores
    assert left.stats == right.stats
    assert left.energy.cycles == right.energy.cycles
    assert set(left.energy.structures) == set(right.energy.structures)
    for name, item in left.energy.structures.items():
        other = right.energy.structures[name]
        assert item.dynamic_pj == pytest.approx(other.dynamic_pj)
        assert item.leakage_pj == pytest.approx(other.leakage_pj)


class TestSpec:
    def test_cells_cover_the_full_grid(self):
        cells = small_spec().cells()
        assert len(cells) == len(BENCHMARKS) * len(CONFIGS)
        assert len({cell.key() for cell in cells}) == len(cells)

    def test_config_dict_round_trip(self):
        config = SimulationConfig.malec(
            l1_hit_latency=3,
            malec_options=MalecParameters(result_buses=2, way_determination="wdu"),
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_cell_key_is_stable_across_instances(self):
        assert cell_key(a_cell()) == cell_key(a_cell())

    def test_cell_key_tracks_every_identity_field(self):
        base = a_cell()
        assert cell_key(a_cell(benchmark="swim")) != cell_key(base)
        assert cell_key(a_cell(instructions=INSTRUCTIONS + 1)) != cell_key(base)
        assert cell_key(a_cell(warmup_fraction=0.3)) != cell_key(base)
        assert cell_key(a_cell(seed=1)) != cell_key(base)
        renamed = replace(CONFIGS[0], name="other")
        assert cell_key(a_cell(config=renamed)) != cell_key(base)
        retuned = replace(CONFIGS[1], malec_options=MalecParameters(result_buses=1))
        assert cell_key(a_cell(config=retuned)) != cell_key(a_cell(config=CONFIGS[1]))

    def test_the_kept_key_is_no_field(self):
        cell = a_cell()
        pickled, hashed = pickle.dumps(cell), hash(cell)
        key = cell.key()
        assert pickle.dumps(cell) == pickled
        assert hash(cell) == hashed and cell == a_cell()
        assert replace(cell, seed=1).key() != key
        assert pickle.loads(pickled).key() == key

    def test_duplicate_configuration_names_rejected(self):
        with pytest.raises(ValueError):
            small_spec(configurations=(CONFIGS[0], CONFIGS[0]))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            small_spec(benchmarks=("gzip", "not-a-benchmark"))

    def test_presets_build(self):
        for name in ("fig4", "fig4-mini", "sec6d"):
            spec = campaign_preset(name)
            assert spec.cells()
        assert len(campaign_preset("fig4").benchmarks) == 38
        with pytest.raises(KeyError):
            campaign_preset("nope")


class TestStore:
    def test_round_trip_preserves_the_result(self, tmp_path):
        cell = a_cell()
        trace = generate_trace(
            benchmark_profile(cell.benchmark), INSTRUCTIONS, seed=cell.trace_seed()
        )
        result = run_configuration(cell.config, trace, warmup_fraction=WARMUP)
        restored = result_from_dict(result_to_dict(result))
        assert_results_equal(result, restored)

        store = ResultStore(tmp_path / "camp")
        assert store.get(cell) is None
        store.put(cell, result)
        assert_results_equal(store.get(cell), result)
        assert len(store) == 1

    def test_get_missing_cell_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).get(a_cell()) is None

    def test_records_carry_full_provenance(self, tmp_path):
        cell = a_cell(benchmark="djpeg", config=CONFIGS[1])
        trace = generate_trace(
            benchmark_profile("djpeg"), INSTRUCTIONS, seed=cell.trace_seed()
        )
        store = ResultStore(tmp_path)
        store.put(cell, run_configuration(cell.config, trace, warmup_fraction=WARMUP))
        (record,) = list(store.records())
        assert record["benchmark"] == "djpeg"
        assert record["suite"] == "MB2"
        assert record["config_name"] == "MALEC"
        assert config_from_dict(record["config"]) == CONFIGS[1]
        assert record["key"] == cell.key()


class TestExecutor:
    def test_serial_sweep_writes_one_record_per_cell(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        executor = ParallelExecutor(jobs=1, store=store)
        results = executor.run(small_spec())
        assert len(executor.completed_cells) == len(BENCHMARKS) * len(CONFIGS)
        assert not executor.skipped_cells
        assert len(store) == len(BENCHMARKS) * len(CONFIGS)
        assert store.manifest()["name"] == "test"
        assert results.configurations == [config.name for config in CONFIGS]

    def test_resume_skips_completed_cells(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        spec = small_spec()
        first = ParallelExecutor(jobs=1, store=store)
        baseline = first.run(spec)

        events = []
        second = ParallelExecutor(
            jobs=1, store=store, progress=lambda e, c, d, t: events.append(e)
        )
        resumed = second.run(spec)
        assert not second.completed_cells
        assert len(second.skipped_cells) == len(spec.cells())
        assert events == ["skipped"] * len(spec.cells())
        for benchmark in BENCHMARKS:
            for config in CONFIGS:
                assert_results_equal(
                    resumed.run_for(benchmark).results[config.name],
                    baseline.run_for(benchmark).results[config.name],
                )

    def test_a_resume_expands_the_grid_and_keys_each_cell_once(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "camp")
        spec = small_spec(instructions=200)
        ParallelExecutor(jobs=1, store=store).run(spec)
        expansions, keyed = [], []
        cells = CampaignSpec.cells
        monkeypatch.setattr(
            CampaignSpec, "cells", lambda self: expansions.append(self) or cells(self)
        )
        monkeypatch.setattr(
            spec_mod, "cell_key", lambda cell: keyed.append(cell) or cell_key(cell)
        )
        executor = ParallelExecutor(jobs=1, store=store)
        resumed = executor.run(spec)
        assert len(expansions) == 1
        assert len(keyed) == len(executor.skipped_cells) == len(cells(spec))
        assert [run.benchmark for run in resumed.runs] == list(BENCHMARKS)

    def test_partial_store_runs_only_missing_cells(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        spec = small_spec()
        cells = spec.cells()
        seeded = ParallelExecutor(jobs=1, store=store)
        # Pre-compute only the first benchmark's cells.
        mini = small_spec(benchmarks=BENCHMARKS[:1])
        seeded.run(mini)

        executor = ParallelExecutor(jobs=1, store=store)
        executor.run(spec)
        assert len(executor.skipped_cells) == len(CONFIGS)
        assert len(executor.completed_cells) == len(cells) - len(CONFIGS)

    def test_parallel_results_equal_serial(self, tmp_path):
        spec = small_spec()
        serial = ParallelExecutor(jobs=1).run(spec)
        executor = ParallelExecutor(jobs=2, store=ResultStore(tmp_path / "par"))
        parallel = executor.run(spec)
        if not executor.used_pool:
            pytest.skip("process pool unavailable on this platform")
        for benchmark in BENCHMARKS:
            for config in CONFIGS:
                assert_results_equal(
                    parallel.run_for(benchmark).results[config.name],
                    serial.run_for(benchmark).results[config.name],
                )

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)

    def test_every_cell_runs_the_specialized_kernel(self, monkeypatch):
        # Campaigns have no kernel choice: each cell of a serial fig4-mini
        # sweep runs on its configuration's specialized kernel.
        used = []
        run = Simulator.run

        def recording_run(simulator, *args, **kwargs):
            result = run(simulator, *args, **kwargs)
            used.append(simulator.kernel_used)
            return result

        monkeypatch.setattr(Simulator, "run", recording_run)
        spec = replace(campaign_preset("fig4-mini"), instructions=300)
        ParallelExecutor(jobs=1).run(spec)
        assert used == [True] * len(spec.cells())

    def test_pool_workers_inherit_the_parents_kernels(self, tmp_path, monkeypatch):
        # The parent compiles every kernel before the pool forks, so the
        # workers' chunk prewarm only hits the inherited cache: every
        # kernel source is generated in the parent process.
        if multiprocessing.get_all_start_methods()[0] != "fork":
            pytest.skip("workers inherit the parent's kernels only by fork")
        from repro.sim import kernels

        log = tmp_path / "generated-by.txt"
        generate_source = kernels.generate_source

        def recording_generate_source(spec, digest="unhashed"):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return generate_source(spec, digest)

        monkeypatch.setattr(kernels, "_CACHE", {})
        monkeypatch.setattr(kernels, "generate_source", recording_generate_source)
        executor = ParallelExecutor(jobs=2)
        executor.run(small_spec(benchmarks=BENCHMARKS[:2], instructions=300))
        assert executor.used_pool
        pids = log.read_text().split()
        assert len(pids) == len(CONFIGS)
        assert set(pids) == {str(os.getpid())}

    def test_killed_workers_end_in_a_serial_finish(self, run_python):
        # Every pool worker SIGKILLs itself on its first cell.  The sweep
        # must not hang: the broken pool raises and the serial pass
        # computes every cell, exactly as a jobs=1 sweep does.
        if multiprocessing.get_all_start_methods()[0] != "fork":
            pytest.skip("the patched executor reaches workers only by fork")
        script = """
import json, os, signal
from dataclasses import replace
import repro.campaign.executor as executor_mod
from repro.campaign.spec import campaign_preset
from repro.campaign.store import result_to_dict

parent = os.getpid()
execute_cell = executor_mod._execute_cell

def die_in_workers(cell):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_cell(cell)

executor_mod._execute_cell = die_in_workers
executor = executor_mod.ParallelExecutor(jobs=2)
results = executor.run(replace(campaign_preset("fig4-mini"), instructions=300))
cells = {
    f"{run.benchmark}/{name}": result_to_dict(result)
    for run in results.runs
    for name, result in run.results.items()
}
print(json.dumps({"used_pool": executor.used_pool, "cells": cells}))
"""
        child = run_python(script)
        assert child.returncode == 0, child.stderr
        out = json.loads(child.stdout.splitlines()[-1])
        assert out["used_pool"]
        serial = ParallelExecutor(jobs=1).run(
            replace(campaign_preset("fig4-mini"), instructions=300)
        )
        expected = {
            f"{run.benchmark}/{name}": result_to_dict(result)
            for run in serial.runs
            for name, result in run.results.items()
        }
        assert out["cells"] == json.loads(json.dumps(expected))

    def test_interrupted_sweep_stops_its_workers(self, run_python):
        # The first cell finishes and the progress callback interrupts the
        # sweep while the other worker is stalled in its chunk: run() must
        # raise at once instead of waiting for a chunk it would drop.
        if multiprocessing.get_all_start_methods()[0] != "fork":
            pytest.skip("the patched executor reaches workers only by fork")
        script = """
import os, time
from dataclasses import replace
import repro.campaign.executor as executor_mod
from repro.campaign.spec import campaign_preset

parent = os.getpid()
execute_cell = executor_mod._execute_cell

def stall_in_workers(cell):
    first = cell.benchmark == "gzip" and cell.config.name == "Base1ldst"
    if os.getpid() != parent and not first:
        time.sleep(600)
    return execute_cell(cell)

def interrupt(event, cell, done, total):
    raise KeyboardInterrupt

executor_mod._execute_cell = stall_in_workers
executor = executor_mod.ParallelExecutor(jobs=2, progress=interrupt)
try:
    executor.run(replace(campaign_preset("fig4-mini"), instructions=300))
except KeyboardInterrupt:
    print("interrupted", executor.used_pool)
"""
        child = run_python(script)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["interrupted", "True"]


def count_pools(monkeypatch) -> list:
    """Sizes of the process pools started from now on, in start order."""
    sizes: list = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sizes.append(kwargs["max_workers"])

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return sizes


def cells_by_key(results) -> dict:
    return {
        f"{run.benchmark}/{name}": result_to_dict(result)
        for run in results.runs
        for name, result in run.results.items()
    }


class TestPoolLifetime:
    """No pool outlives its owner: perfbench books a worker's CPU only once
    the worker is waited for, so a pool left alive would hide its work.  A
    run outside a ``with`` block joins its own pool before it returns; a
    block keeps one pool of ``jobs`` workers across its runs and joins it
    on exit."""

    def test_an_unscoped_run_leaves_no_live_child(self, monkeypatch):
        sizes = count_pools(monkeypatch)
        executor = ParallelExecutor(jobs=2)
        executor.run(small_spec(benchmarks=BENCHMARKS[:2], instructions=300))
        if not executor.used_pool:
            pytest.skip("process pool unavailable on this platform")
        assert sizes == [2]
        assert multiprocessing.active_children() == []

    def test_a_scoped_pool_is_sized_at_jobs(self, monkeypatch):
        sizes = count_pools(monkeypatch)
        with ParallelExecutor(jobs=3) as executor:
            executor.run(small_spec(configurations=CONFIGS[:1], benchmarks=BENCHMARKS[:2]))
            if not executor.used_pool:
                pytest.skip("process pool unavailable on this platform")
        assert sizes == [3]
        assert multiprocessing.active_children() == []

    def test_runs_in_one_scope_share_one_pool_and_match_jobs_1(self, monkeypatch):
        # The second run brings a kernel shape the first lacked, compiled in
        # the parent after the workers were forked, and a trace registered
        # between the runs: its bytes and its kernel reach the workers with
        # their chunks, so results and kernel cache counters match jobs=1.
        from repro.sim import kernels
        from repro.workloads import registry

        monkeypatch.setattr(kernels, "_CACHE", {})
        monkeypatch.setattr(registry, "_TRACES", {})
        monkeypatch.setattr(registry, "_HANDLES", {})
        sizes = count_pools(monkeypatch)
        base_2ld1st = SimulationConfig.base_2ld1st()
        first = small_spec(configurations=(CONFIGS[0], base_2ld1st), instructions=300)
        ingested = generate_trace(benchmark_profile("djpeg"), instructions=300)

        def scoped_runs(jobs):
            obs_metrics.registry.clear()
            obs_metrics.enable()
            try:
                with ParallelExecutor(jobs=jobs) as executor:
                    results = [executor.run(first)]
                    pooled = [executor.used_pool]
                    handle = registry.register_trace(ingested, name="djpeg-ingested")
                    second = small_spec(
                        configurations=(base_2ld1st, SimulationConfig.malec()),
                        benchmarks=("gzip", handle.name),
                        instructions=300,
                    )
                    results.append(executor.run(second))
                    pooled.append(executor.used_pool)
            finally:
                obs_metrics.disable()
            snapshot = obs_metrics.registry.snapshot()
            counters = {
                name: snapshot.get(name, 0.0)
                for name in ("kernel.cache.hit", "kernel.cache.miss", "campaign.cells_completed")
            }
            return [cells_by_key(result) for result in results], counters, pooled

        pooled_cells, pooled_counters, pooled = scoped_runs(jobs=2)
        if not all(pooled):
            pytest.skip("process pool unavailable on this platform")
        assert sizes == [2]
        assert multiprocessing.active_children() == []
        serial_cells, serial_counters, _ = scoped_runs(jobs=1)
        assert pooled_cells == serial_cells
        assert pooled_counters == serial_counters
        assert serial_counters == {
            "kernel.cache.hit": 10.0,
            "kernel.cache.miss": 0.0,
            "campaign.cells_completed": 10.0,
        }


class TestWriteErrors:
    """A failed write of the sweep's own output, a store record or a journal
    line, ends the run as itself at any job count: it is no pool failure,
    so nothing warns of one, counts a pool fallback or simulates a cell
    after it."""

    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("scheme", ("json", "sqlite"))
    @pytest.mark.parametrize("target", ("store", "journal"))
    def test_a_full_disk_ends_the_run(self, tmp_path, monkeypatch, target, scheme, jobs):
        store = ResultStore(f"{scheme}:{tmp_path / 'store'}")
        journal = TelemetryJournal(tmp_path / "telemetry.jsonl")
        owner, method = (store, "_write") if target == "store" else (journal, "cell")
        write = getattr(owner, method)
        writes = []

        def fill_the_disk_on_the_fourth(*args, **kwargs):
            writes.append(args)
            if len(writes) == 4:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(*args, **kwargs)

        execute_cell = executor_mod._execute_cell
        late_cells = []

        def execute_in_order(cell):
            if len(writes) >= 4:
                late_cells.append(cell)
            return execute_cell(cell)

        warnings = []
        monkeypatch.setattr(owner, method, fill_the_disk_on_the_fourth)
        monkeypatch.setattr(executor_mod, "_execute_cell", execute_in_order)
        monkeypatch.setattr(executor_mod.logger, "warning", lambda *args: warnings.append(args))
        obs_metrics.registry.clear()
        obs_metrics.enable()
        try:
            executor = ParallelExecutor(jobs=jobs, store=store, journal=journal)
            with pytest.raises(StoreWriteError) as raised:
                executor.run(small_spec())
        finally:
            obs_metrics.disable()
        named = store.url if target == "store" else str(journal.path)
        assert named in str(raised.value)
        assert raised.value.__cause__.errno == errno.ENOSPC
        assert len(writes) == 4 and not late_cells and not warnings
        assert "campaign.pool_fallbacks" not in obs_metrics.registry.snapshot()
        assert executor.used_pool == (jobs > 1)


class TestReadErrors:
    """A stored record that does not parse ends the run with an error that
    names the store, the cell and (json:) the file, and says how to
    recover, at any job count."""

    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("scheme", ("json", "sqlite"))
    def test_a_truncated_record_ends_the_run(self, tmp_path, scheme, jobs):
        spec = small_spec(instructions=200)
        url = f"{scheme}:{tmp_path / 'store'}"
        ParallelExecutor(jobs=1, store=url).run(spec)
        key = spec.cells()[3].key()
        if scheme == "json":
            where = tmp_path / "store" / "cells" / f"{key}.json"
            where.write_bytes(where.read_bytes()[:100])
        else:
            db = sqlite3.connect(tmp_path / "store")
            with db:
                db.execute(
                    "UPDATE cells SET record = substr(record, 1, 100) WHERE key = ?",
                    (key,),
                )
            db.close()
        executor = ParallelExecutor(jobs=jobs, store=url)
        for read in (lambda: executor.run(spec), lambda: list(executor.store.records())):
            with pytest.raises(StoreReadError) as raised:
                read()
            message = str(raised.value)
            assert url in message and key in message
            assert "delete" in message and "recomputes the cell" in message
            if scheme == "json":
                assert str(where) in message
            assert isinstance(raised.value.__cause__, json.JSONDecodeError)
        assert not executor.completed_cells
        assert multiprocessing.active_children() == []
        executor.store.close()


class TestAggregate:
    def test_results_rebuilt_from_store_match_the_sweep(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        spec = small_spec()
        live = ParallelExecutor(jobs=1, store=store).run(spec)
        rebuilt = results_from_store(store)
        assert rebuilt.configurations == live.configurations
        assert [run.benchmark for run in rebuilt.runs] == [
            run.benchmark for run in live.runs
        ]
        base = CONFIGS[0].name
        assert rebuilt.geomean_normalized_cycles(base) == pytest.approx(
            live.geomean_normalized_cycles(base)
        )
        assert rebuilt.geomean_normalized_energy(base) == pytest.approx(
            live.geomean_normalized_energy(base)
        )

    def test_summarize_store_reports_geomeans(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        ParallelExecutor(jobs=1, store=store).run(small_spec())
        text = summarize_store(store)
        assert "geo. mean all (time)" in text
        assert "Base1ldst" in text and "MALEC" in text

    def test_ambiguous_store_raises(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        ParallelExecutor(jobs=1, store=store).run(small_spec(benchmarks=("gzip",)))
        ParallelExecutor(jobs=1, store=store).run(
            small_spec(benchmarks=("gzip",), instructions=INSTRUCTIONS + 100)
        )
        with pytest.raises(ValueError):
            results_from_store(store)
        # Filtering by trace length disambiguates.
        assert results_from_store(store, instructions=INSTRUCTIONS).runs


class TestResultsAssembly:
    def test_default_executor_persists_every_cell(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        results = ParallelExecutor(store=store).run(small_spec())
        assert len(store) == len(BENCHMARKS) * len(CONFIGS)
        rebuilt = results_from_store(store)
        base = CONFIGS[0].name
        assert rebuilt.geomean_normalized_cycles(base) == pytest.approx(
            results.geomean_normalized_cycles(base)
        )

    def test_run_for_returns_the_first_match_and_raises_for_unknown(self):
        results = ParallelExecutor(jobs=1).run(small_spec(configurations=CONFIGS[:1]))
        assert results.run_for("swim").benchmark == "swim"
        duplicate = replace(results.runs[0], suite="other")
        results.runs.append(duplicate)
        assert results.run_for(duplicate.benchmark) is results.runs[0]
        with pytest.raises(KeyError):
            results.run_for("not-a-benchmark")
