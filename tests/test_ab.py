"""Tests for ``tools/ab.py``, the paired A/B driver, on fixed numbers.

No perfbench run happens here: the statistics take hand-made values, and
the driver's run loop drives stand-in ``perfbench/run.py`` scripts that
print one fixed result line.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


@pytest.mark.parametrize(
    "values, expected",
    [
        ([3.0], (3.0, 3.0, 3.0)),
        ([1.0, 2.0, 3.0, 4.0, 5.0], (2.0, 3.0, 4.0)),
        ([4.0, 1.0, 3.0, 2.0], (1.75, 2.5, 3.25)),
    ],
    ids=["one-run", "odd", "even-unsorted"],
)
def test_quartiles(values, expected):
    assert ab.quartiles(values) == pytest.approx(expected)


def test_ties_count_for_neither_side():
    base = [1.0, 2.0, 3.0, 4.0]
    head = [1.0, 1.5, 3.5, 4.0]
    assert ab.wins(base, head) == (1, 1)


def test_bootstrap_interval_repeats_exactly():
    ratios = [0.91, 0.95, 0.97, 1.02, 0.93, 0.96, 0.94, 0.99, 0.92, 0.98]
    low, high = ab.bootstrap_interval(ratios, seed=0)
    assert (low, high) == ab.bootstrap_interval(list(ratios), seed=0)
    assert min(ratios) <= low <= sorted(ratios)[len(ratios) // 2] <= high <= max(ratios)


def test_limits_come_from_the_bounds():
    assert ab.limit("fig4-sim", "cpu_s") == pytest.approx(1.02)
    assert ab.limit("sweep-json", "cpu_s") == pytest.approx(1.0 + ab.BOUNDS["cpu_s"])
    assert ab.limit("fig4-sim", "setup_s") == pytest.approx(1.0 + ab.BOUNDS["setup_s"])


@pytest.mark.parametrize(
    "workload, ratios, regression",
    [
        # every pair 3% slower: the interval lies wholly above 1.02
        ("fig4-sim", [1.03, 1.03, 1.03, 1.03, 1.03], True),
        # one pair under 1.02 keeps the lower end of the interval below it
        ("fig4-sim", [1.00, 1.03, 1.04, 1.05, 1.06], False),
        # other workloads allow cpu_s BENCHMARK.json's 20%
        ("sweep-json", [1.03, 1.03, 1.03, 1.03, 1.03], False),
        ("sweep-json", [1.25, 1.25, 1.25, 1.25, 1.25], True),
    ],
)
def test_gate_trips_only_when_the_interval_lies_wholly_past_its_limit(workload, ratios, regression):
    base = [4.0] * len(ratios)
    head = [4.0 * ratio for ratio in ratios]
    summary = ab.summarize(workload, "cpu_s", base, head, seed=0)
    assert summary["regression"] is regression


@pytest.mark.parametrize(
    "ratios, regression",
    [
        # a busy loop in the issue stage: 0/5 pairs won, median 1.028,
        # interval [1.012, 1.089], which the interval rule alone lets pass
        ([1.012, 1.021, 1.028, 1.047, 1.089], True),
        # the same ratios with one pair won
        ([0.998, 1.021, 1.028, 1.047, 1.089], False),
        # an unchanged tree against itself can lose every pair by a little
        ([1.002, 1.004, 1.008, 1.011, 1.015], False),
    ],
    ids=["all-lost-past-limit", "one-won", "all-lost-within-limit"],
)
def test_gate_trips_when_the_base_wins_every_pair_past_the_limit(ratios, regression):
    base = [4.0] * len(ratios)
    head = [4.0 * ratio for ratio in ratios]
    summary = ab.summarize("fig4-sim", "cpu_s", base, head, seed=0)
    # the interval rule alone passes all three
    assert summary["ratio"]["interval"][0] < 1.02
    assert summary["regression"] is regression


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread():
    base = [5.0, 5.1, 5.2, 5.3, 5.4, 5.5, 5.6, 5.7, 5.8, 5.9]
    nine = [value * 0.9 for value in base[:9]] + [base[9] * 1.01]
    eight = [value * 0.9 for value in base[:8]] + [value * 1.01 for value in base[8:]]
    assert ab.summarize("fig4-sim", "cpu_s", base, nine, seed=0)["claim"] is True
    assert ab.summarize("fig4-sim", "cpu_s", base, eight, seed=0)["claim"] is False
    # nine wins of 0.1% each sit inside the parent's interquartile distance
    small = [value * 0.999 for value in base[:9]] + [base[9] * 1.01]
    assert ab.summarize("fig4-sim", "cpu_s", base, small, seed=0)["claim"] is False
    # five clear wins out of five pairs are too few pairs to claim
    five = [value * 0.9 for value in base[:5]]
    assert ab.summarize("fig4-sim", "cpu_s", base[:5], five, seed=0)["claim"] is False


def _fake_tree(root, correct=True, failed=0, cpu_s=4.5):
    """A tree whose perfbench prints one fixed result line and appends the
    tree's name and its arguments to ``runs.log`` beside the tree."""
    result = {
        "correct": correct,
        "attempted": 3,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": 0.25, "unit": "s"},
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "peak_rss_mb": {"value": 48.0, "unit": "MB"},
        },
    }
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        "import sys\n"
        "from pathlib import Path\n"
        "with open(Path.cwd().parent / 'runs.log', 'a') as log:\n"
        "    log.write(' '.join([Path.cwd().name] + sys.argv[1:]) + '\\n')\n"
        f"print({json.dumps(json.dumps(result))})\n"
    )
    return root


@pytest.fixture
def fake_driver(tmp_path, monkeypatch):
    """Point the driver at stand-in trees named by revision; records go to tmp."""
    trees = {}

    def fake_git(*args, cwd=None):
        return args[-1].split("^")[0].ljust(40, "0")

    monkeypatch.setattr(ab, "git", fake_git)
    monkeypatch.setattr(ab, "checkout", lambda commit, scratch: trees[commit[:4]])
    monkeypatch.setattr(ab, "RECORD_DIR", tmp_path / "records")
    return trees


@pytest.mark.parametrize(
    "workloads, name",
    [
        (["fig4-sim"], "AB_base000_head000_fig4-sim.json"),
        (["dse-halving", "sweep-json"], "AB_base000_head000_sweep-json+dse-halving.json"),
        ([], "AB_base000_head000.json"),
    ],
    ids=["one-workload", "two-in-benchmark-order", "all-workloads"],
)
def test_driver_records_matching_trees(tmp_path, fake_driver, workloads, name):
    fake_driver["base"] = _fake_tree(tmp_path / "base")
    fake_driver["head"] = _fake_tree(tmp_path / "head")
    flags = [flag for workload in workloads for flag in ("--workload", workload)]
    assert ab.main(["base", "head", *flags, "--pairs", "2", "--seconds", "1"]) == 0
    assert [path.name for path in (tmp_path / "records").iterdir()] == [name]
    record = json.loads((tmp_path / "records" / name).read_text())
    assert sorted(record["workloads"]) == sorted(workloads or ab.WORKLOADS)
    for measured in record["workloads"].values():
        assert [run["first"] for run in measured["runs"]] == ["base", "head"]
        cpu = measured["metrics"]["cpu_s"]
        assert cpu["ratio"]["interval"] == [1.0, 1.0]
        assert cpu["wins"] == {"head": 0, "base": 0}
    assert record["regressions"] == []


def test_a_seeded_record_is_named_by_its_seed(tmp_path, fake_driver):
    fake_driver["base"] = _fake_tree(tmp_path / "base")
    fake_driver["head"] = _fake_tree(tmp_path / "head")
    records = tmp_path / "records"
    argv = ["base", "head", "--workload", "fig4-sim", "--pairs", "1", "--seconds", "1"]
    assert ab.main(argv) == 0
    written = (records / "AB_base000_head000_fig4-sim.json").read_bytes()
    assert ab.main(argv + ["--seed", "3"]) == 0
    names = sorted(path.name for path in records.iterdir())
    assert names == ["AB_base000_head000_fig4-sim.json", "AB_base000_head000_fig4-sim_seed3.json"]
    assert (records / "AB_base000_head000_fig4-sim.json").read_bytes() == written
    seeded = json.loads((records / "AB_base000_head000_fig4-sim_seed3.json").read_text())
    assert seeded["settings"]["seed"] == 3


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)])
def test_a_run_that_is_not_correct_ends_the_driver(tmp_path, fake_driver, capsys, correct, failed):
    fake_driver["base"] = _fake_tree(tmp_path / "base")
    fake_driver["head"] = _fake_tree(tmp_path / "head", correct=correct, failed=failed)
    argv = ["base", "head", "--workload", "sweep-json", "--pairs", "3", "--seconds", "1"]
    assert ab.main(argv) == 1
    assert "sweep-json pair 1/3 head (head000)" in capsys.readouterr().err
    assert not (tmp_path / "records").exists()


def test_pairs_swap_which_tree_runs_first_and_every_run_is_untraced(tmp_path, fake_driver):
    fake_driver["base"] = _fake_tree(tmp_path / "base")
    fake_driver["head"] = _fake_tree(tmp_path / "head")
    argv = ["base", "head", "--workload", "fig4-sim", "--pairs", "3", "--seconds", "2.5"]
    assert ab.main(argv + ["--seed", "7"]) == 0
    runs = [line.split(" ", 1) for line in (tmp_path / "runs.log").read_text().splitlines()]
    assert [tree for tree, _ in runs] == ["base", "head", "head", "base", "base", "head"]
    assert {args for _, args in runs} == {"--workload fig4-sim --seed 7 --seconds 2.5 --trace 0"}


def test_a_head_past_its_limit_fails_the_driver_and_is_recorded(tmp_path, fake_driver, capsys):
    fake_driver["base"] = _fake_tree(tmp_path / "base")
    fake_driver["head"] = _fake_tree(tmp_path / "head", cpu_s=4.5 * 1.25)
    argv = ["base", "head", "--workload", "sweep-json", "--pairs", "2", "--seconds", "1"]
    assert ab.main(argv) == 1
    record = json.loads((tmp_path / "records" / "AB_base000_head000_sweep-json.json").read_text())
    assert record["regressions"] == ["sweep-json cpu_s"]
    assert "wholly above its limit: sweep-json cpu_s" in capsys.readouterr().err


def test_head_defaults_to_the_working_tree(tmp_path, fake_driver, monkeypatch):
    fake_driver["base"] = _fake_tree(tmp_path / "base")
    monkeypatch.setattr(ab, "ROOT", _fake_tree(tmp_path / "worktree"))
    assert ab.main(["base", "--workload", "fig4-sim", "--pairs", "1", "--seconds", "1"]) == 0
    record = json.loads((tmp_path / "records" / "AB_base000_worktree_fig4-sim.json").read_text())
    assert record["head"]["revision"] == "worktree"
    runs = (tmp_path / "runs.log").read_text().splitlines()
    assert sorted(line.split()[0] for line in runs) == ["base", "worktree"]


def test_a_name_that_is_not_a_commit_is_a_usage_error(monkeypatch, capsys):
    def no_commit(*args, cwd=None):
        raise subprocess.CalledProcessError(128, ["git", *args])

    monkeypatch.setattr(ab, "git", no_commit)
    assert ab.main(["nope", "--pairs", "1"]) == 2
    assert "not a commit: nope" in capsys.readouterr().err


@pytest.mark.parametrize(
    "script",
    ["raise SystemExit(3)\n", "print('no result')\n", ""],
    ids=["exit-3", "not-json", "silent"],
)
def test_a_run_without_a_result_line_ends_the_driver(tmp_path, fake_driver, capsys, script):
    fake_driver["base"] = _fake_tree(tmp_path / "base")
    fake_driver["head"] = _fake_tree(tmp_path / "head")
    (tmp_path / "head" / "perfbench" / "run.py").write_text(script)
    argv = ["base", "head", "--workload", "fig4-sim", "--pairs", "1", "--seconds", "1"]
    assert ab.main(argv) == 1
    assert "fig4-sim pair 1/1 head (head000): perfbench exited" in capsys.readouterr().err
    assert not (tmp_path / "records").exists()


@pytest.mark.parametrize(
    "flags",
    [["--pairs", "0"], ["--seconds", "0"], ["--seconds", "-1"], ["--workload", "nope"]],
    ids=["pairs-0", "seconds-0", "seconds-negative", "unknown-workload"],
)
def test_out_of_range_flags_are_usage_errors(flags, capsys):
    with pytest.raises(SystemExit) as raised:
        ab.main(["base", *flags])
    assert raised.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
