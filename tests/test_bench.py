"""Tests for the ``repro bench`` perf-regression harness."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BENCH_PREFIX,
    SCHEMA_VERSION,
    compare_reports,
    default_output_dir,
    detect_revision,
    find_regressions,
    format_report,
    run_benchmarks,
    write_report,
)
from repro.cli import main

EXPECTED_SCENARIOS = {
    "trace_generation",
    "single_config_run",
    "single_config_run_kernel",
    "fig4_mini_sweep",
    "fig4_mini_sweep_serial",
    "figure4_gzip_djpeg_mcf",
    "trace_decode_rtrc",
    "trace_columnar_decode",
}


@pytest.fixture(scope="module")
def quick_report() -> dict:
    """One shared --quick run (the scenarios still simulate real cells)."""
    return run_benchmarks(quick=True, label="test")


class TestRunBenchmarks:
    def test_report_shape(self, quick_report):
        assert quick_report["schema"] == SCHEMA_VERSION
        assert quick_report["label"] == "test"
        assert set(quick_report["scenarios"]) == EXPECTED_SCENARIOS
        assert quick_report["params"]["quick"] is True
        assert quick_report["params"]["repeats"] == 1

    def test_scenarios_record_timings_and_details(self, quick_report):
        for name, scenario in quick_report["scenarios"].items():
            assert scenario["seconds"] > 0.0, name
            assert scenario["runs"] and min(scenario["runs"]) == scenario["seconds"]
        sweep = quick_report["scenarios"]["fig4_mini_sweep"]
        assert sweep["cells"] == 15  # 5 Fig. 4 configurations x 3 benchmarks
        single = quick_report["scenarios"]["single_config_run"]
        assert single["cycles"] > 0
        assert quick_report["total_seconds"] == pytest.approx(
            sum(s["seconds"] for s in quick_report["scenarios"].values())
        )

    def test_columnar_decode_reports_payload_size(self, quick_report):
        columnar = quick_report["scenarios"]["trace_columnar_decode"]
        assert columnar["rtrc_bytes"] > 0
        assert columnar["instructions"] == quick_report["params"]["instructions"]

    def test_kernel_scenario_reports_generic_baseline(self, quick_report):
        kernel = quick_report["scenarios"]["single_config_run_kernel"]
        assert kernel["generic_seconds"] > 0.0
        assert kernel["speedup_vs_generic"] == pytest.approx(
            kernel["generic_seconds"] / kernel["seconds"]
        )
        assert kernel["cycles"] > 0

    def test_quick_caps_workload_sizes(self, quick_report):
        assert quick_report["params"]["instructions"] <= 600
        assert quick_report["params"]["sweep_instructions"] <= 400

    def test_detect_revision_returns_string(self):
        assert isinstance(detect_revision(), str) and detect_revision()


class TestReportFiles:
    def test_write_report_creates_bench_file(self, quick_report, tmp_path):
        path = write_report(quick_report, tmp_path)
        assert path.name == f"{BENCH_PREFIX}test.json"
        loaded = json.loads(path.read_text())
        assert loaded == quick_report

    def test_write_report_sanitises_label(self, quick_report, tmp_path):
        report = dict(quick_report, label="feat/odd label!")
        path = write_report(report, tmp_path)
        assert path.name == f"{BENCH_PREFIX}feat-odd-label-.json"

    def test_format_report_lists_all_scenarios(self, quick_report):
        text = format_report(quick_report)
        for name in EXPECTED_SCENARIOS:
            assert name in text
        assert "total" in text

    def test_compare_reports_prints_speedups(self, quick_report):
        before = json.loads(json.dumps(quick_report))
        before["label"] = "before"
        for scenario in before["scenarios"].values():
            scenario["seconds"] = scenario["seconds"] * 2.0
        text = compare_reports(before, quick_report)
        assert "2.0" in text and "before" in text

    def test_compare_reports_skips_unknown_scenarios(self, quick_report):
        text = compare_reports({"label": "b", "scenarios": {}}, quick_report)
        assert text.splitlines() == [f"speedup b -> {quick_report['label']}"]


class TestCompareGate:
    def _shifted(self, report, factor, label):
        copy = json.loads(json.dumps(report))
        copy["label"] = label
        for scenario in copy["scenarios"].values():
            scenario["seconds"] = scenario["seconds"] * factor
        return copy

    def test_find_regressions_flags_slowdowns(self, quick_report):
        slower = self._shifted(quick_report, 1.5, "slower")
        hits = find_regressions(quick_report, slower, threshold_pct=20.0)
        assert len(hits) == len(quick_report["scenarios"])
        assert all("slower" in line for line in hits)

    def test_find_regressions_respects_threshold(self, quick_report):
        slower = self._shifted(quick_report, 1.1, "slower")
        assert find_regressions(quick_report, slower, threshold_pct=20.0) == []

    def test_find_regressions_ignores_new_scenarios(self, quick_report):
        before = json.loads(json.dumps(quick_report))
        del before["scenarios"]["fig4_mini_sweep_serial"]
        slower = self._shifted(quick_report, 3.0, "slower")
        hits = find_regressions(before, slower, threshold_pct=20.0)
        assert not any("fig4_mini_sweep_serial" in line for line in hits)

    def test_two_file_compare_passes_and_fails(self, quick_report, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(quick_report))
        new.write_text(json.dumps(self._shifted(quick_report, 1.5, "slow")))
        # Within a generous threshold: success.
        assert main(["bench", "--compare", str(old), str(new), "--threshold", "60"]) == 0
        # Default 20% gate: the 50% slowdown fails the build.
        assert main(["bench", "--compare", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "regression beyond threshold" in out
        # Speedups never fail, whatever the direction of the file arguments.
        assert main(["bench", "--compare", str(new), str(old)]) == 0

    def test_two_file_compare_runs_nothing(self, quick_report, tmp_path):
        old = tmp_path / "old.json"
        old.write_text(json.dumps(quick_report))
        # Comparing a report against itself: no benchmarks run (instant), 0.
        assert main(["bench", "--compare", str(old), str(old)]) == 0

    def test_trace_decode_reports_jsonl_comparison(self, quick_report):
        decode = quick_report["scenarios"]["trace_decode_rtrc"]
        assert decode["jsonl_seconds"] > 0.0
        assert decode["speedup_vs_jsonl"] > 0.0
        assert decode["rtrc_bytes"] > 0

    def test_compare_missing_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        other = str(tmp_path / "also-nope.json")
        assert main(["bench", "--compare", missing, other]) == 2
        err = capsys.readouterr().err
        assert "comparison file not found" in err and "nope.json" in err

    def test_compare_corrupt_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["bench", "--compare", str(bad), str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_compare_non_report_json_exits_2(self, tmp_path, capsys):
        not_report = tmp_path / "empty.json"
        not_report.write_text("[]")
        assert main(["bench", "--compare", str(not_report), str(not_report)]) == 2
        assert "not a bench report" in capsys.readouterr().err

    def test_single_file_compare_missing_baseline_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "base.json")
        assert main(["bench", "--quick", "--no-write", "--compare", missing]) == 2
        assert "comparison file not found" in capsys.readouterr().err

    def test_more_than_two_files_rejected(self, quick_report, tmp_path):
        old = tmp_path / "old.json"
        old.write_text(json.dumps(quick_report))
        assert main(["bench", "--compare", str(old), str(old), str(old)]) == 2

    def test_default_output_dir_is_repo_anchored(self):
        path = default_output_dir()
        assert path.parts[-2:] == ("benchmarks", "perf")
        # In this checkout the repository root is resolvable.
        assert path.is_absolute()

    def test_output_override_writes_exact_path(self, quick_report, tmp_path):
        target = tmp_path / "nested" / "exact.json"
        path = write_report(quick_report, tmp_path, out_file=target)
        assert path == target and target.exists()


class TestBenchCli:
    def test_cli_quick_no_write(self, capsys):
        assert main(["bench", "--quick", "--no-write"]) == 0
        out = capsys.readouterr().out
        assert "fig4_mini_sweep" in out
        assert "wrote" not in out

    def test_cli_writes_and_compares(self, tmp_path, capsys):
        assert main(["bench", "--quick", "--label", "a", "--out", str(tmp_path)]) == 0
        first = tmp_path / f"{BENCH_PREFIX}a.json"
        assert first.exists()
        assert (
            main(
                [
                    "bench",
                    "--quick",
                    "--label",
                    "b",
                    "--out",
                    str(tmp_path),
                    "--compare",
                    str(first),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "speedup a -> b" in out
        assert (tmp_path / f"{BENCH_PREFIX}b.json").exists()
