"""Tests for external-trace ingestion: parsers, transforms, registry, campaigns."""

import gzip
from pathlib import Path

import pytest

from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import ResultStore
from repro.cpu.instruction import compute, load, store
from repro.sim.config import SimulationConfig
from repro.sim.simulator import run_configuration
from repro.workloads.ingest import (
    TraceParseError,
    dump_jsonl,
    interleave,
    load_trace,
    parse_csv,
    parse_dinero,
    parse_lackey,
    skip_warmup,
    sniff_format,
    subsample,
    window,
)
from repro.workloads.registry import (
    clear_registry,
    register_trace,
    registered_handle,
    registered_trace,
    validate_workload,
    workload_suite,
    workload_trace_hash,
)
from repro.workloads.trace import MemoryTrace

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_registry()
    yield
    clear_registry()


def _toy_trace(name: str = "toy", base: int = 0x1000) -> MemoryTrace:
    return MemoryTrace(
        name=name,
        instructions=[
            load(base),
            compute(deps=(1,)),
            store(base + 8, deps=(1,)),
            load(base + 64),
            compute(),
            store(base + 72),
        ],
    )


def _record_deps(trace, seq: int) -> tuple:
    """The backward dependency distances of record ``seq``."""
    offsets = trace.dep_offsets()
    return tuple(trace.deps_pool[offsets[seq] : offsets[seq + 1]])


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------
class TestLackeyParser:
    def test_sample_file(self):
        trace = load_trace(DATA / "sample.lackey")
        assert trace.name == "sample"
        # 17 I lines -> compute (code 0), 9 L, 5 S, 3 M (load+store each).
        assert trace.kinds.count(0) == 17
        assert trace.load_count == 9 + 3
        assert trace.store_count == 5 + 3
        assert trace.addresses[1] == 0x04222CAC and trace.sizes[1] == 4

    def test_modify_expands_to_load_then_store(self):
        trace = parse_lackey([" M 0400,8"])
        assert list(trace.kinds) == [1, 2]  # load, then store
        assert list(trace.addresses) == [0x400, 0x400]
        assert list(trace.sizes) == [8, 8]

    def test_banner_and_blank_lines_skipped(self):
        trace = parse_lackey(["==12== tool banner", "", "--12-- more", " L 10,4"])
        assert len(trace) == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(TraceParseError, match=r"line 3: malformed lackey"):
            parse_lackey([" L 10,4", " S 20,4", "garbage here"], source="app.lackey")

    def test_unknown_operation_reports_number(self):
        with pytest.raises(TraceParseError, match=r"line 2: unknown lackey operation 'X'"):
            parse_lackey([" L 10,4", " X 20,4"])

    def test_non_positive_size_rejected(self):
        with pytest.raises(TraceParseError, match=r"line 1: non-positive"):
            parse_lackey([" L 10,0"])


class TestDineroParser:
    def test_sample_file(self):
        trace = load_trace(DATA / "sample.din")
        assert trace.kinds.count(0) == 12
        assert trace.load_count == 8
        assert trace.store_count == 4
        assert all(size == 4 for kind, size in zip(trace.kinds, trace.sizes) if kind)

    def test_extra_columns_ignored(self):
        trace = parse_dinero(["0 12ff00a4 extra stuff"])
        assert trace.addresses[0] == 0x12FF00A4

    def test_malformed_line_reports_number(self):
        with pytest.raises(TraceParseError, match=r"line 2: malformed din"):
            parse_dinero(["0 12ff00a4", "only-one-field"], source="app.din")

    def test_bad_address_reports_number(self):
        with pytest.raises(TraceParseError, match=r"line 1: bad din address"):
            parse_dinero(["0 zz"])

    def test_unknown_label_reports_number(self):
        with pytest.raises(TraceParseError, match=r"line 1: unknown din label '7'"):
            parse_dinero(["7 12ff00a4"])


class TestCsvParser:
    def test_sample_file(self):
        trace = load_trace(DATA / "sample.csv")
        assert len(trace) == 10
        assert trace.kinds[0] == 1 and trace.addresses[0] == 0x1000  # a load
        assert _record_deps(trace, 3) == (1, 3)
        assert trace.addresses[5] == 4128 and trace.sizes[5] == 8

    def test_size_defaults_to_four(self):
        trace = parse_csv(["kind,address", "load,0x10"])
        assert trace.sizes[0] == 4

    def test_missing_header_rejected(self):
        with pytest.raises(TraceParseError, match="must name 'kind' and 'address'"):
            parse_csv(["address,size", "0x10,4"])

    def test_empty_file_rejected(self):
        with pytest.raises(TraceParseError, match="empty file"):
            parse_csv([])

    def test_malformed_row_reports_number(self):
        with pytest.raises(TraceParseError, match=r"line 3: malformed CSV"):
            parse_csv(["kind,address", "load,0x10", "jump,0x14"], source="app.csv")


_CSV_HEADER = "kind,address,size,deps"


class TestOutOfRangeFields:
    """A field the ``.rtrc`` record cannot hold fails at its input line."""

    @pytest.mark.parametrize(
        "parse, lines, line",
        [
            (parse_csv, [_CSV_HEADER, "load,0x10,4,", "load,-16,4,"], 3),
            (parse_csv, [_CSV_HEADER, "store,0x10,65536,"], 2),
            (parse_csv, [_CSV_HEADER, "load,0x10,4,", "load,0x20,4," + ";".join(["1"] * 256)], 3),
            (parse_csv, [_CSV_HEADER, "compute,,,4294967296"], 2),
            (parse_lackey, ["I  100,4", " L -10,4"], 2),
            (parse_lackey, [" S 10,65536"], 1),
            (parse_dinero, ["2 0", "0 12ff00a4", "0 10000000000000000"], 3),
        ],
        ids=[
            "csv-negative-address",
            "csv-size-65536",
            "csv-256-deps",
            "csv-dep-2**32",
            "lackey-negative-address",
            "lackey-size-65536",
            "din-address-2**64",
        ],
    )
    def test_names_the_line(self, parse, lines, line):
        with pytest.raises(TraceParseError, match=rf"^bad\.trace: line {line}: "):
            parse(lines, source="bad.trace")

    def test_jsonl_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        dump_jsonl(_toy_trace(), path)
        lines = path.read_text().splitlines()
        lines[3] = '{"a": 18446744073709551616, "k": "store", "s": 4}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceParseError, match=r"bad\.jsonl: line 4: "):
            load_trace(path)


class TestLoadTrace:
    def test_sniffing(self):
        assert sniff_format("a.lackey") == "lackey"
        assert sniff_format("a.vgtrace.gz") == "lackey"
        assert sniff_format("a.din") == "din"
        assert sniff_format("a.csv.gz") == "csv"
        assert sniff_format("a.rtrc") == "rtrc"
        assert sniff_format("a.jsonl.gz") == "jsonl"
        assert sniff_format("a.bin") is None

    def test_unknown_extension_raises(self, tmp_path):
        path = tmp_path / "trace.bin"
        path.write_text(" L 10,4\n")
        with pytest.raises(TraceParseError, match="cannot infer the trace format"):
            load_trace(path)

    def test_explicit_format_overrides_extension(self, tmp_path):
        path = tmp_path / "trace.bin"
        path.write_text(" L 10,4\n")
        assert len(load_trace(path, fmt="lackey")) == 1

    def test_gzip_text_input(self, tmp_path):
        path = tmp_path / "app.lackey.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("I  100,4\n L 200,4\n")
        trace = load_trace(path)
        assert trace.name == "app" and len(trace) == 2

    def test_jsonl_and_rtrc_formats(self, tmp_path):
        payload = _toy_trace().columnar().to_bytes()
        jsonl = tmp_path / "t.jsonl"
        dump_jsonl(_toy_trace(), jsonl)
        assert load_trace(jsonl).to_bytes() == payload
        rtrc = tmp_path / "t.rtrc"
        rtrc.write_bytes(payload)
        assert load_trace(rtrc).to_bytes() == payload

    def test_name_override(self):
        trace = load_trace(DATA / "sample.din", name="renamed")
        assert trace.name == "renamed"


# ----------------------------------------------------------------------
# Transforms
# ----------------------------------------------------------------------
class TestTransforms:
    def test_window_slices_region_of_interest(self):
        trace = _toy_trace().columnar()
        roi = window(trace, 2, 5)
        assert roi.kinds == trace.kinds[2:5]
        assert roi.addresses[0] == 0x1008  # record 2 of the source is record 0
        assert _record_deps(roi, 0) == (1,)  # distances are kept as they are

    def test_skip_warmup(self):
        trace = _toy_trace()
        assert len(skip_warmup(trace, 4)) == len(trace.instructions) - 4
        assert skip_warmup(trace, 0).to_bytes() == trace.columnar().to_bytes()

    def test_subsample_keeps_every_kth(self):
        trace = _toy_trace()
        sampled = subsample(trace, 2)
        assert len(sampled) == 3
        # Records 0, 2 and 4: a load, a store and a compute (address 0).
        assert list(sampled.addresses) == [0x1000, 0x1008, 0]
        assert sampled.ndeps == bytes(3)
        # Stride 1 keeps every record and its deps.
        assert subsample(trace, 1).to_bytes() == trace.columnar().to_bytes()

    def test_interleave_round_robin_order(self):
        a = MemoryTrace("a", [load(0x100), load(0x104), load(0x108)])
        b = MemoryTrace("b", [store(0x200), store(0x204)])
        merged = interleave([a, b], granularity=2)
        assert list(merged.addresses) == [0x100, 0x104, 0x200, 0x204, 0x108]
        assert merged.name == "a+b"

    def test_interleave_remaps_dependencies_exactly(self):
        a = MemoryTrace("a", [load(0x100), compute(deps=(1,)), load(0x108, deps=(2,))])
        b = MemoryTrace("b", [store(0x200), store(0x204), store(0x208)])
        merged = interleave([a, b], granularity=1)
        # Order: a0 b0 a1 b1 a2 b2 -> a1 at seq 2 consumes a0 at seq 0,
        # a2 at seq 4 also consumes a0.
        producers = merged.pipeline_arrays()[3]
        assert producers[2] == (0,)
        assert producers[4] == (0,)

    def test_interleave_simulates(self):
        merged = interleave([_toy_trace("a"), _toy_trace("b", base=0x8000)])
        result = run_configuration(SimulationConfig.malec(), merged, warmup_fraction=0.0)
        assert result.instructions == len(merged)


# ----------------------------------------------------------------------
# Registry and campaign integration
# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_and_resolve(self):
        handle = register_trace(_toy_trace())
        assert registered_trace(handle.name) is not None
        assert registered_handle(handle.name).fingerprint == handle.fingerprint
        assert handle.name.startswith("toy@")
        assert workload_suite(handle.name) == "ingested"
        assert workload_trace_hash(handle.name) == handle.fingerprint
        validate_workload(handle.name)

    def test_reregistering_same_content_is_idempotent(self):
        assert register_trace(_toy_trace()) == register_trace(_toy_trace())

    def test_same_name_different_content_conflicts(self):
        register_trace(_toy_trace(), name="app")
        with pytest.raises(ValueError, match="different content"):
            register_trace(_toy_trace(base=0x9000), name="app")

    def test_profile_names_are_reserved(self):
        with pytest.raises(ValueError, match="synthetic benchmark profile"):
            register_trace(_toy_trace(), name="gzip")

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            validate_workload("no-such-workload")

    def test_synthetic_workloads_still_resolve(self):
        validate_workload("gzip")
        assert workload_suite("gzip") == "SPEC-INT"
        assert workload_trace_hash("gzip") == ""


class TestCampaignIntegration:
    def _spec(self, *names, instructions=300):
        return CampaignSpec(
            name="ingest-test",
            configurations=(SimulationConfig.base_1ldst(), SimulationConfig.malec()),
            benchmarks=names,
            instructions=instructions,
            warmup_fraction=0.0,
        )

    def test_spec_rejects_unregistered_trace_names(self):
        with pytest.raises(KeyError, match="unknown workload"):
            self._spec("gzip", "missing@0123456789")

    def test_cells_carry_the_content_hash(self):
        handle = register_trace(_toy_trace())
        cells = self._spec("gzip", handle.name).cells()
        by_benchmark = {cell.benchmark: cell for cell in cells}
        assert by_benchmark["gzip"].trace_hash == ""
        assert by_benchmark[handle.name].trace_hash == handle.fingerprint

    def test_cell_key_depends_on_trace_content(self):
        config = SimulationConfig.malec()
        cell = CampaignCell(
            benchmark="app", config=config, instructions=300, trace_hash="a" * 20
        )
        other = CampaignCell(
            benchmark="app", config=config, instructions=300, trace_hash="b" * 20
        )
        plain = CampaignCell(benchmark="app", config=config, instructions=300)
        assert len({cell.key(), other.key(), plain.key()}) == 3

    def test_synthetic_cell_keys_unchanged_by_the_new_field(self):
        # The trace_hash field must not shift keys of existing stored cells.
        config = SimulationConfig.base_1ldst()
        cell = CampaignCell(benchmark="gzip", config=config, instructions=500)
        assert cell.key() == CampaignCell(
            benchmark="gzip", config=config, instructions=500, trace_hash=""
        ).key()

    def test_executor_runs_mixed_grid(self):
        handle = register_trace(_toy_trace())
        results = ParallelExecutor(jobs=1).run(self._spec("gzip", handle.name))
        run = results.run_for(handle.name)
        assert run.suite == "ingested"
        assert run.results["MALEC"].instructions == len(_toy_trace().instructions)
        assert results.run_for("gzip").results["MALEC"].instructions > 0

    def test_long_traces_truncate_to_the_cell_budget(self):
        long = MemoryTrace("long", [load(0x100 + 4 * i) for i in range(64)])
        handle = register_trace(long)
        results = ParallelExecutor(jobs=1).run(self._spec(handle.name, instructions=16))
        assert results.run_for(handle.name).results["MALEC"].instructions == 16

    def test_store_resume_recognises_reregistered_traces(self, tmp_path):
        handle = register_trace(_toy_trace())
        store_dir = ResultStore(tmp_path / "camp")
        spec = self._spec(handle.name)
        first = ParallelExecutor(jobs=1, store=store_dir)
        first.run(spec)
        assert len(first.completed_cells) == 2

        # A fresh registry (new process, same trace bytes) resumes fully.
        clear_registry()
        register_trace(_toy_trace())
        second = ParallelExecutor(jobs=1, store=ResultStore(tmp_path / "camp"))
        second.run(self._spec(handle.name))
        assert len(second.completed_cells) == 0
        assert len(second.skipped_cells) == 2

    def test_store_records_the_trace_hash(self, tmp_path):
        handle = register_trace(_toy_trace())
        store_dir = ResultStore(tmp_path / "camp")
        ParallelExecutor(jobs=1, store=store_dir).run(self._spec(handle.name))
        records = list(store_dir.records())
        assert all(r["trace_hash"] == handle.fingerprint for r in records)

    def test_pool_path_ships_trace_bytes(self):
        handle = register_trace(_toy_trace())
        executor = ParallelExecutor(jobs=2)
        results = executor.run(self._spec("gzip", handle.name))
        # Pool or serial fallback: either way every cell must be present.
        assert results.run_for(handle.name).results["Base1ldst"].cycles > 0

    def test_reregistered_name_with_new_content_is_not_served_stale(self):
        # Same name, different bytes after a registry reset: the trace cache
        # is keyed by content hash, so the second sweep must simulate the
        # *new* trace, not the one cached from the first sweep.
        register_trace(_toy_trace(), name="app")
        executor = ParallelExecutor(jobs=1)
        first = executor.run(self._spec("app"))

        clear_registry()
        longer = MemoryTrace("toy", _toy_trace().instructions + [load(0x4000), store(0x4008)])
        register_trace(longer, name="app")
        second = executor.run(self._spec("app"))
        assert first.run_for("app").results["MALEC"].instructions == 6
        assert second.run_for("app").results["MALEC"].instructions == 8

    def test_manifest_lists_trace_fingerprints(self, tmp_path):
        handle = register_trace(_toy_trace())
        store_dir = ResultStore(tmp_path / "camp")
        ParallelExecutor(jobs=1, store=store_dir).run(self._spec("gzip", handle.name))
        manifest = store_dir.manifest()
        assert manifest["traces"] == {handle.name: handle.fingerprint}
