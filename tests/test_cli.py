"""Tests for the command-line front end."""

import json
from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.ingest import load_trace
from repro.workloads.registry import clear_registry

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_registry()
    yield
    clear_registry()


class TestCli:
    def test_list_prints_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "gzip" in output and "mcf" in output and "h263dec" in output

    def test_compare_runs_three_configurations(self, capsys):
        assert main(["compare", "gzip", "--instructions", "800", "--warmup", "0.2"]) == 0
        output = capsys.readouterr().out
        assert "Base1ldst" in output and "Base2ld1st" in output and "MALEC" in output
        assert "norm. time" in output

    def test_figure4_sweep(self, capsys):
        assert main(["figure4", "djpeg", "--instructions", "800", "--warmup", "0.2"]) == 0
        output = capsys.readouterr().out
        assert "MALEC_3cycleL1" in output and "geo. mean" in output

    def test_figure4_parallel_jobs(self, capsys):
        assert main(
            ["figure4", "djpeg", "gzip", "--instructions", "600", "--warmup", "0.2", "--jobs", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "geo. mean" in output

    def test_sweep_in_memory(self, capsys):
        assert main(
            ["sweep", "fig4-mini", "--instructions", "500", "--quiet"]
        ) == 0
        output = capsys.readouterr().out
        assert "15 cell(s) simulated" in output
        assert "geo. mean all (time)" in output

    def test_sweep_with_store_resumes(self, capsys, tmp_path):
        out = str(tmp_path / "camp")
        argv = [
            "sweep", "fig4-mini",
            "--benchmarks", "gzip", "djpeg",
            "--instructions", "500",
            "--store", out,
            "--quiet",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "10 cell(s) simulated, 0 resumed" in first
        assert "10 records" in first
        # Second invocation against the same directory skips every cell.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 cell(s) simulated, 10 resumed" in second
        assert "geo. mean all (time)" in second

    def test_sweep_mixed_instruction_store_summarizes(self, capsys, tmp_path):
        # A directory holding records at another trace length must not break
        # the summary: the sweep filters to its own grid parameters.
        out = str(tmp_path / "camp")
        base = ["sweep", "fig4-mini", "--benchmarks", "gzip", "--store", out, "--quiet"]
        assert main(base + ["--instructions", "400"]) == 0
        capsys.readouterr()
        assert main(base + ["--instructions", "500"]) == 0
        output = capsys.readouterr().out
        assert "geo. mean all (time)" in output
        assert "10 records" in output  # both sweeps' cells persisted

    def test_sweep_unknown_preset_exits_2_with_valid_names(self, capsys):
        # No KeyError traceback: the CLI reports the valid presets and
        # returns the argparse usage-error code.
        assert main(["sweep", "not-a-preset"]) == 2
        err = capsys.readouterr().err
        assert "not-a-preset" in err
        for name in ("fig4", "fig4-mini", "sec6d"):
            assert name in err

    def test_report_repeated_config_exits_2(self, capsys):
        argv = ["report", "gzip", "--config", "MALEC", "--config", "MALEC"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "duplicate configuration names" in captured.err
        assert captured.out == ""

    def test_sweep_invalid_flag_values_rejected(self):
        for argv in (
            ["sweep", "fig4-mini", "--jobs", "0"],
            ["sweep", "fig4-mini", "--instructions", "0"],
            ["sweep", "fig4-mini", "--warmup", "1.5"],
            ["figure4", "gzip", "--jobs", "-3"],
            # --store DIR replaced the --out DIR alias on sweep and dse
            ["sweep", "fig4-mini", "--out", "camp"],
            ["dse", "malec-mini", "--out", "camp"],
        ):
            with pytest.raises(SystemExit):
                main(argv)

    def test_dse_unknown_space_exits_2_with_valid_names(self, capsys):
        assert main(["dse", "not-a-space"]) == 2
        err = capsys.readouterr().err
        assert "not-a-space" in err
        assert "malec-mini" in err and "malec-sensitivity" in err

    def test_dse_unknown_objective_exits_2(self, capsys):
        assert main(
            ["dse", "malec-mini", "--objectives", "runtime,bogus", "--budget", "1"]
        ) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "edp" in err

    def test_dse_smoke_writes_frontier_csv(self, capsys, tmp_path):
        out = str(tmp_path / "dse")
        argv = [
            "dse", "malec-mini",
            "--strategy", "random",
            "--budget", "2",
            "--instructions", "300",
            "--benchmarks", "gzip", "streamwrite",
            "--jobs", "1",
            "--store", out,
            "--quiet",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "Pareto frontier" in output
        csv_path = tmp_path / "dse" / "frontier.csv"
        lines = csv_path.read_text().splitlines()
        assert len(lines) >= 2  # header plus at least one frontier point
        assert "runtime" in lines[0] and "energy" in lines[0]
        # Re-running resumes every cell from the store and reproduces the
        # exact same artifact.
        before = csv_path.read_text()
        assert main(argv) == 0
        resumed = capsys.readouterr().out
        assert "cells: 0 simulated" in resumed
        assert csv_path.read_text() == before

    def test_dse_halving_in_memory(self, capsys):
        argv = [
            "dse", "malec-mini",
            "--strategy", "halving",
            "--budget", "4",
            "--instructions", "400",
            "--benchmarks", "gzip",
            "--jobs", "1",
            "--quiet",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "strategy halving" in output
        assert "Pareto frontier" in output

    def test_list_includes_synthetic_profiles(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "ptrchase" in output and "streamwrite" in output
        assert "SYN" in output

    def test_locality_command(self, capsys):
        assert main(["locality", "gzip", "djpeg", "--instructions", "800"]) == 0
        output = capsys.readouterr().out
        assert "same line" in output and "djpeg" in output

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "not-a-benchmark"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--store", "json:unused", "--port", "70000"],
            ["serve", "--store", "json:unused", "--port", "-1"],
            ["locality", "gzip", "--instructions", "0"],
            ["locality", "gzip", "--instructions", "-5"],
            ["bench"],
            ["serve", "--store", "json:unused", "--port", "65536"],
            ["profile", "nope"],
            ["profile", "fig4-mini", "--list"],
        ],
    )
    def test_out_of_range_arguments_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("port", [0, 65535])
    def test_port_range_is_inclusive(self, port):
        argv = ["serve", "--store", "json:unused", "--port", str(port)]
        assert _build_parser().parse_args(argv).port == port

    def test_profile_command(self, capsys, tmp_path):
        target = tmp_path / "stacks.txt"
        argv = ["profile", "fig4-mini", "--instructions", "300", "--top", "5"]
        assert main(argv + ["--collapsed", str(target)]) == 0
        output = capsys.readouterr().out
        assert "cumulative" in output
        assert f"collapsed stacks written to {target}" in output
        assert target.read_text()


class TestIngestCli:
    def test_convert_lackey_to_rtrc(self, capsys, tmp_path):
        out = tmp_path / "sample.rtrc"
        assert main(["ingest", "convert", str(DATA / "sample.lackey"), "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "wrote" in stdout and "fingerprint" in stdout
        assert len(ColumnarTrace.load(out)) == 37

    def test_convert_din_to_rtrc(self, capsys, tmp_path):
        out = tmp_path / "sample.rtrc"
        assert main(["ingest", "convert", str(DATA / "sample.din"), "-o", str(out)]) == 0
        assert len(ColumnarTrace.load(out)) == 24

    def test_convert_applies_transforms_in_order(self, tmp_path, capsys):
        out = tmp_path / "out.rtrc"
        argv = [
            "ingest", "convert", str(DATA / "sample.din"),
            "-o", str(out),
            "--window", "0:20", "--skip", "4", "--stride", "2",
        ]
        assert main(argv) == 0
        assert len(ColumnarTrace.load(out)) == 8  # (20 - 4) every 2nd

    def test_convert_to_jsonl_output(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl.gz"
        assert main(["ingest", "convert", str(DATA / "sample.csv"), "-o", str(out)]) == 0
        assert len(load_trace(out)) == 10

    def test_convert_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.lackey"
        bad.write_text(" L 10,4\nnot a record\n")
        assert main(["ingest", "convert", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "bad.lackey" in err

    def test_convert_out_of_range_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "negative.csv"
        bad.write_text("kind,address,size,deps\nload,-16,4,\n")
        assert main(["ingest", "convert", str(bad), "-o", str(tmp_path / "out.rtrc")]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "negative.csv" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.rtrc").exists()

    def test_convert_malformed_window_exits_2(self, tmp_path, capsys):
        argv = [
            "ingest", "convert", str(DATA / "sample.din"),
            "-o", str(tmp_path / "out.rtrc"), "--window", "abc:def",
        ]
        assert main(argv) == 2
        assert "START:STOP" in capsys.readouterr().err

    def test_convert_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["ingest", "convert", str(tmp_path / "nope.din")]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_inspect(self, capsys):
        assert main(["ingest", "inspect", str(DATA / "sample.lackey"), str(DATA / "sample.din")]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("fingerprint") == 2 and "37 instr" in stdout

    def test_interleave(self, capsys, tmp_path):
        out = tmp_path / "mix.rtrc"
        argv = [
            "ingest", "interleave",
            str(DATA / "sample.lackey"), str(DATA / "sample.din"),
            "-o", str(out), "--granularity", "8", "--name", "mixed",
        ]
        assert main(argv) == 0
        merged = ColumnarTrace.load(out)
        assert merged.name == "mixed"
        assert len(merged) == 37 + 24


class TestTraceFileSweeps:
    def test_sweep_runs_a_trace_file_end_to_end(self, capsys, tmp_path):
        rtrc = tmp_path / "app.rtrc"
        assert main(["ingest", "convert", str(DATA / "sample.lackey"), "-o", str(rtrc)]) == 0
        capsys.readouterr()
        out = tmp_path / "camp"
        argv = [
            "sweep", "fig4-mini",
            "--trace-file", str(rtrc),
            "--store", str(out), "--quiet",
        ]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "5 cell(s) simulated" in stdout  # the trace replaces the grid
        # Re-running resumes every cell from the store via the content hash.
        clear_registry()
        assert main(argv) == 0
        assert "0 cell(s) simulated, 5 resumed" in capsys.readouterr().out

    def test_sweep_trace_file_alongside_benchmarks(self, capsys, tmp_path):
        argv = [
            "sweep", "fig4-mini",
            "--benchmarks", "gzip",
            "--trace-file", str(DATA / "sample.din"),
            "--instructions", "400", "--quiet",
        ]
        assert main(argv) == 0
        assert "10 cell(s) simulated" in capsys.readouterr().out

    def test_figure4_with_trace_file(self, capsys):
        argv = [
            "figure4", "--trace-file", str(DATA / "sample.lackey"),
            "--instructions", "400", "--warmup", "0.1",
        ]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "sample@" in stdout and "geo. mean" in stdout

    def test_figure4_without_workloads_exits_2(self, capsys):
        assert main(["figure4"]) == 2
        assert "benchmark names and/or --trace-file" in capsys.readouterr().err

    def test_dse_with_trace_file(self, capsys, tmp_path):
        argv = [
            "dse", "malec-mini",
            "--strategy", "random", "--budget", "2",
            "--instructions", "200",
            "--trace-file", str(DATA / "sample.din"),
            "--quiet",
        ]
        assert main(argv) == 0
        assert "Pareto frontier" in capsys.readouterr().out

    def test_report_cuts_a_trace_file_to_the_budget(self, capsys, tmp_path):
        # report resolves a workload as figure4 does: of the 61-instruction
        # interleaved trace it runs the first 40, 12 of them warm-up.
        mix = tmp_path / "mix.rtrc"
        argv = ["ingest", "interleave", str(DATA / "sample.lackey"), str(DATA / "sample.din")]
        assert main(argv + ["-o", str(mix)]) == 0
        out = tmp_path / "report.json"
        argv = [
            "report", "--trace-file", str(mix),
            "--instructions", "40", "--config", "MALEC", "--json", str(out),
        ]
        assert main(argv) == 0
        rows = json.loads(out.read_text())
        assert rows and all(row["instructions"] == 28 for row in rows)

    def test_missing_trace_file_exits_2(self, capsys, tmp_path):
        argv = ["sweep", "fig4-mini", "--trace-file", str(tmp_path / "nope.rtrc")]
        assert main(argv) == 2
        assert "repro:" in capsys.readouterr().err
