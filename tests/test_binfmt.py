"""Tests for the compact binary trace format (``.rtrc``)."""

import gzip
import time

import pytest

from repro.cli import main
from repro.cpu.instruction import compute, load, store
from repro.workloads.binfmt import (
    RTRC_MAGIC,
    RTRC_VERSION,
    TraceFormatError,
    dump_rtrc,
    fingerprint_sections,
    pack_layout,
    read_header,
)
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.ingest import dump_jsonl, load_trace
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import MemoryTrace

#: ``_sample_trace``'s records as (kind code, address, size, deps)
SAMPLE_RECORDS = [
    (1, 0x1000, 4, ()),
    (0, 0, 4, (1,)),
    (2, 0x1004, 8, (2,)),
    (1, 0x2000, 1, ()),
    (0, 0, 4, ()),
    (2, 0x2008, 4, (1, 4)),
]


def _sample_trace(name: str = "sample") -> MemoryTrace:
    return MemoryTrace(
        name=name,
        instructions=[
            load(0x1000),
            compute(deps=(1,)),
            store(0x1004, size=8, deps=(2,)),
            load(0x2000, size=1),
            compute(),
            store(0x2008, deps=(1, 4)),
        ],
        suite="unit",
    )


def _payload(name: str = "sample") -> bytes:
    return _sample_trace(name).columnar().to_bytes()


def _records(trace: ColumnarTrace):
    """Every record of ``trace`` as (kind code, address, size, deps)."""
    offsets = trace.dep_offsets()
    return [
        (
            trace.kinds[seq],
            trace.addresses[seq],
            trace.sizes[seq],
            tuple(trace.deps_pool[offsets[seq] : offsets[seq + 1]]),
        )
        for seq in range(len(trace))
    ]


class TestRoundTrip:
    def test_decode_restores_every_instruction(self):
        trace = _sample_trace()
        decoded = ColumnarTrace.from_rtrc_bytes(trace.columnar().to_bytes())
        assert decoded.name == trace.name
        assert decoded.suite == trace.suite
        assert decoded.layout == trace.layout
        assert _records(decoded) == SAMPLE_RECORDS

    def test_reencode_is_bit_identical(self):
        payload = generate_trace(benchmark_profile("gzip"), 800).to_bytes()
        assert ColumnarTrace.from_rtrc_bytes(payload).to_bytes() == payload

    def test_roundtrip_through_jsonl_is_bit_identical(self, tmp_path):
        """JSONL and .rtrc preserve exactly the same information."""
        trace = generate_trace(benchmark_profile("mcf"), 600)
        direct = trace.to_bytes()
        jsonl = tmp_path / "trace.jsonl"
        dump_jsonl(trace, jsonl)
        assert load_trace(jsonl).to_bytes() == direct
        # And the reverse direction: .rtrc -> JSONL matches JSONL directly.
        rtrc_jsonl = tmp_path / "roundtrip.jsonl"
        dump_jsonl(ColumnarTrace.from_rtrc_bytes(direct), rtrc_jsonl)
        assert rtrc_jsonl.read_text() == jsonl.read_text()

    def test_empty_trace_roundtrips(self):
        trace = MemoryTrace(name="empty", instructions=[], suite="unit")
        decoded = ColumnarTrace.from_rtrc_bytes(trace.columnar().to_bytes())
        assert decoded.name == "empty"
        assert len(decoded) == 0

    def test_to_bytes_is_rtrc(self):
        payload = _payload()
        assert payload.startswith(RTRC_MAGIC)
        assert _records(ColumnarTrace.from_rtrc_bytes(payload)) == SAMPLE_RECORDS


class TestFileIO:
    def test_dump_and_load(self, tmp_path):
        trace = _sample_trace()
        path = tmp_path / "t.rtrc"
        dump_rtrc(trace, path)
        assert _records(ColumnarTrace.load(path)) == SAMPLE_RECORDS

    def test_gzip_path_is_compressed(self, tmp_path):
        trace = generate_trace(benchmark_profile("gzip"), 400)
        plain = tmp_path / "t.rtrc"
        packed = tmp_path / "t.rtrc.gz"
        dump_rtrc(trace, plain)
        dump_rtrc(trace, packed)
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        assert ColumnarTrace.load(packed).to_bytes() == trace.to_bytes()

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.rtrc"
        path.write_bytes(b"RTRC")
        with pytest.raises(TraceFormatError, match="bad.rtrc"):
            ColumnarTrace.load(path)

    def test_zero_size_load_names_file_and_record(self, tmp_path, capsys):
        payload = bytearray(_payload())
        size_at = read_header(bytes(payload))["body_offset"] + 2  # record 0: a load
        payload[size_at : size_at + 2] = b"\x00\x00"
        path = tmp_path / "zero.rtrc"
        path.write_bytes(bytes(payload))
        with pytest.raises(TraceFormatError, match=r"zero\.rtrc: .*record 0: load with zero size"):
            ColumnarTrace.load(path)
        assert main(["ingest", "inspect", str(path)]) == 2
        error = capsys.readouterr().err
        assert "zero.rtrc" in error and "record 0" in error


class TestMalformedPayloads:
    def test_truncated_header(self):
        with pytest.raises(TraceFormatError, match="truncated .rtrc header"):
            ColumnarTrace.from_rtrc_bytes(b"RTRC\x01\x00")

    def test_bad_magic(self):
        payload = bytearray(_payload())
        payload[:4] = b"NOPE"
        with pytest.raises(TraceFormatError, match="bad magic"):
            ColumnarTrace.from_rtrc_bytes(bytes(payload))

    def test_unsupported_version(self):
        payload = bytearray(_payload())
        payload[4] = RTRC_VERSION + 1
        with pytest.raises(TraceFormatError, match="unsupported .rtrc version"):
            ColumnarTrace.from_rtrc_bytes(bytes(payload))

    def test_truncated_records(self):
        with pytest.raises(TraceFormatError, match="truncated or oversized"):
            ColumnarTrace.from_rtrc_bytes(_payload()[:-5])

    def test_trailing_garbage(self):
        with pytest.raises(TraceFormatError, match="truncated or oversized"):
            ColumnarTrace.from_rtrc_bytes(_payload() + b"\x00\x00")

    def test_name_cut_short(self):
        payload = _payload(name="a-rather-long-trace-name")
        with pytest.raises(TraceFormatError, match="name/suite cut short"):
            ColumnarTrace.from_rtrc_bytes(payload[:58])


class TestFingerprint:
    def test_stable_across_encode_decode(self):
        trace = _sample_trace().columnar()
        decoded = ColumnarTrace.from_rtrc_bytes(trace.to_bytes())
        assert trace.fingerprint() == decoded.fingerprint()

    def test_independent_of_name_and_suite(self):
        one = _sample_trace(name="one")
        two = _sample_trace(name="two")
        two.suite = "other"
        assert one.columnar().fingerprint() == two.columnar().fingerprint()

    def test_sensitive_to_content(self):
        base = _sample_trace()
        changed = _sample_trace()
        changed.instructions[0].address = 0x1004
        assert base.columnar().fingerprint() != changed.columnar().fingerprint()

    def test_hashes_the_written_sections(self):
        trace = _sample_trace()
        payload = _payload()
        records_at = read_header(payload)["body_offset"]
        deps_at = records_at + 12 * len(trace.instructions)
        assert trace.columnar().fingerprint() == fingerprint_sections(
            pack_layout(trace.layout), payload[records_at:deps_at], payload[deps_at:]
        )


class TestHeader:
    def test_read_header_without_body(self):
        trace = _sample_trace()
        header = read_header(_payload())
        assert header["version"] == RTRC_VERSION
        assert header["name"] == "sample"
        assert header["suite"] == "unit"
        assert header["instructions"] == len(trace.instructions)
        assert header["layout"]["page_bytes"] == trace.layout.page_bytes


class TestDecodeSpeed:
    def test_rtrc_decodes_faster_than_jsonl(self, tmp_path):
        """The worker-payload claim: binary decode beats the JSONL parse.

        Best-of-five on a 20k-instruction trace; the observed gap is ~2.5x,
        so the bare ``<`` comparison has a wide noise margin.
        """
        trace = generate_trace(benchmark_profile("gzip"), 20_000)
        rtrc = tmp_path / "t.rtrc"
        jsonl = tmp_path / "t.jsonl"
        dump_rtrc(trace, rtrc)
        dump_jsonl(trace, jsonl)

        def best_of(action, repeats=5):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                action()
                times.append(time.perf_counter() - start)
            return min(times)

        rtrc_seconds = best_of(lambda: ColumnarTrace.load(rtrc))
        jsonl_seconds = best_of(lambda: load_trace(jsonl))
        assert rtrc_seconds < jsonl_seconds, (
            f"rtrc decode ({rtrc_seconds * 1000:.1f} ms) should beat the "
            f"JSONL parse ({jsonl_seconds * 1000:.1f} ms)"
        )
