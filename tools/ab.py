#!/usr/bin/env python3
"""Paired A/B timing of two revisions with the end-to-end benchmark.

Run::

    python3 tools/ab.py BASE [HEAD] [--workload W]... [--pairs 10] [--seconds S] [--seed 0]

BASE and HEAD name git revisions; HEAD defaults to this working tree,
uncommitted changes included.  Each named revision is cloned with
``git clone`` into a temporary directory, and the working tree is copied
into one (its tracked files with their edits, and the untracked files git
does not ignore), so neither side runs in the repository itself and the
head stays as it was when the driver started.  For each workload the driver runs
``--pairs`` pairs of untraced ``perfbench/run.py`` runs, one run of each
tree per pair, and swaps which tree goes first from pair to pair, so drift
in the host's speed lands on both sides.  Every run uses the benchmark of
its own tree, ``--seconds`` of measured passes (default: ``run_seconds`` of
``BENCHMARK.json``) and the workload seed ``--seed``, which also seeds the
bootstrap.  A run that fails, or whose result is not ``correct: true`` with
``failed: 0``, ends the driver with exit status 1.

For each end-to-end metric ``BENCHMARK.json`` bounds (``setup_s``, ``cpu_s``
and ``peak_rss_mb``; lower is better for each) it reports each side's
median and quartiles, the median of the per-pair ratios HEAD/BASE with a
95% bootstrap interval, the pairs each side won (ties count for neither),
and whether the claim rule of ``CONTRIBUTING.md`` holds: at least ten
pairs, HEAD better in at least nine tenths of them, and the medians apart
by more than BASE's interquartile distance.

It writes one JSON record, ``benchmarks/perf/AB_<base>_<head>.json``; when
``--workload`` narrows the run, the name ends in its workloads, in
``BENCHMARK.json`` order joined by ``+`` (``AB_<base>_<head>_fig4-sim.json``),
and a ``--seed`` other than 0 appends ``_seed<N>``
(``AB_<base>_<head>_fig4-sim_seed3.json``), so records of other workloads
and seeds keep their files.  It exits 1 on a
regression: a metric whose interval lies wholly above its limit, which is
1 + its bound, or 1.02 for fig4-sim ``cpu_s``, or, from five pairs on,
one that BASE won in every pair with a median ratio above that limit.
With few pairs the interval runs from about the smallest ratio to the
largest, so one lucky pair would keep the first rule open on its own; an
unchanged tree loses all of three pairs one time in eight, but all of
five only one time in 32, so the second rule waits for five.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORD_DIR = ROOT / "benchmarks" / "perf"

#: metric name -> the relative worsening BENCHMARK.json allows
BOUNDS = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
#: tighter limits on the paired ratio: the serial simulation path keeps the
#: 2% that guards disabled observation and the one run path
TIGHT_LIMITS = {("fig4-sim", "cpu_s"): 1.02}
#: a claimed gain needs this many pairs and must win this share of them
#: (CONTRIBUTING.md)
CLAIM_PAIRS = 10
CLAIM_SHARE = 0.9
#: the fewest pairs that let a base winning every pair fail the gate: an
#: unchanged tree loses all of n pairs with probability 2**-n
ALL_LOST_PAIRS = 5
RESAMPLES = 2000
CONFIDENCE = 0.95


class RunFailed(Exception):
    """A perfbench run that did not finish with ``correct: true`` and ``failed: 0``."""


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def bootstrap_interval(ratios, seed):
    """Percentile bootstrap interval of the median of ``ratios``.

    The same ratios and seed give the same interval on every run.
    """
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES)
    )
    cut = round(RESAMPLES * (1.0 - CONFIDENCE) / 2.0)
    return medians[cut], medians[-cut - 1]


def wins(base, head):
    """Pairs in which each side read lower: ``(head wins, base wins)``."""
    head_wins = sum(1 for b, h in zip(base, head) if h < b)
    base_wins = sum(1 for b, h in zip(base, head) if b < h)
    return head_wins, base_wins


def limit(workload, metric):
    """The paired ratio above which a whole interval, or the median of pairs
    all lost, counts as a regression."""
    return min(1.0 + BOUNDS[metric], TIGHT_LIMITS.get((workload, metric), math.inf))


def summarize(workload, metric, base, head, seed):
    """Everything the record and the table say about one metric of one workload."""
    base_q1, base_median, base_q3 = quartiles(base)
    head_q1, head_median, head_q3 = quartiles(head)
    ratios = [h / b for b, h in zip(base, head)]
    median_ratio = statistics.median(ratios)
    low, high = bootstrap_interval(ratios, seed)
    head_wins, base_wins = wins(base, head)
    claim = (
        len(ratios) >= CLAIM_PAIRS
        and head_wins >= CLAIM_SHARE * len(ratios)
        and base_median - head_median > base_q3 - base_q1
    )
    ceiling = limit(workload, metric)
    all_lost = len(ratios) >= ALL_LOST_PAIRS and base_wins == len(ratios)
    return {
        "base": {"median": base_median, "q1": base_q1, "q3": base_q3},
        "head": {"median": head_median, "q1": head_q1, "q3": head_q3},
        "ratio": {"median": median_ratio, "interval": [low, high]},
        "wins": {"head": head_wins, "base": base_wins},
        "claim": claim,
        "limit": ceiling,
        "regression": low > ceiling or (all_lost and median_ratio > ceiling),
    }


def run_perfbench(name, tree, workload, seconds, seed):
    """The end-to-end metrics of one untraced perfbench run of ``workload`` in
    ``tree``, or ``RunFailed`` naming the run."""
    process = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = process.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if process.returncode != 0 or not isinstance(result, dict):
        raise RunFailed(f"{name}: perfbench exited {process.returncode}\n{process.stderr[-2000:]}")
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunFailed(
            f"{name}: correct={result.get('correct')} failed={result.get('failed')} "
            f"of {result.get('attempted')}"
        )
    return {metric: result["metrics"][metric]["value"] for metric in BOUNDS}


def git(*args, cwd=ROOT):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(revision, scratch):
    """A fresh clone of this repository at ``revision``; returns its path."""
    tree = Path(tempfile.mkdtemp(prefix="tree-", dir=scratch))
    git("clone", "--quiet", "--no-checkout", str(ROOT), str(tree))
    git("checkout", "--quiet", "--detach", revision, cwd=tree)
    return tree


def snapshot(scratch):
    """A copy of the working tree, uncommitted edits included, in a new
    directory under ``scratch``: the tracked files and the untracked ones
    git does not ignore.  Returns its path."""
    tree = Path(tempfile.mkdtemp(prefix="worktree-", dir=scratch))
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT,
        check=True,
        capture_output=True,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        # a tracked file deleted in the working tree is not copied
        if source.is_file():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / name)
    return tree


def measure(trees, labels, workload, pairs, seconds, seed):
    """Alternate ``pairs`` pairs of runs of the two trees; the workload's record."""
    runs = []
    for pair in range(pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        values = {}
        for side in order:
            name = f"{workload} pair {pair + 1}/{pairs} {side} ({labels[side]})"
            values[side] = run_perfbench(name, trees[side], workload, seconds, seed)
            shown = ", ".join(f"{metric} {value:.4g}" for metric, value in values[side].items())
            print(f"  {name}: {shown}", flush=True)
        runs.append({"first": order[0], "base": values["base"], "head": values["head"]})
    metrics = {
        metric: summarize(
            workload,
            metric,
            [run["base"][metric] for run in runs],
            [run["head"][metric] for run in runs],
            seed,
        )
        for metric in BOUNDS
    }
    return {"runs": runs, "metrics": metrics}


def format_workload(workload, record, pairs):
    lines = [
        f"== {workload}: {pairs} pairs; base median [q1, q3] -> head median [q1, q3], "
        f"ratio head/base [{CONFIDENCE:.0%} interval]",
    ]
    for metric, summary in record["metrics"].items():
        base, head, ratio = summary["base"], summary["head"], summary["ratio"]
        low, high = ratio["interval"]
        verdict = "REGRESSION" if summary["regression"] else "ok"
        lines.append(
            f"  {metric:<12} {base['median']:.4g} [{base['q1']:.4g}, {base['q3']:.4g}] -> "
            f"{head['median']:.4g} [{head['q1']:.4g}, {head['q3']:.4g}]  "
            f"ratio {ratio['median']:.4f} [{low:.4f}, {high:.4f}]  "
            f"head won {summary['wins']['head']}, base {summary['wins']['base']}  "
            f"claim {'holds' if summary['claim'] else 'no'}  "
            f"limit {summary['limit']:.2f}: {verdict}"
        )
    return "\n".join(lines)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_float(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE", help="git revision of the parent side")
    parser.add_argument(
        "head",
        metavar="HEAD",
        nargs="?",
        default=None,
        help="git revision of the change side (default: this working tree)",
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=WORKLOADS,
        default=None,
        help="workload to measure (repeatable; default: all four)",
    )
    parser.add_argument(
        "--pairs", type=_positive_int, default=10, help="pairs per workload (default: 10)"
    )
    parser.add_argument(
        "--seconds",
        type=_positive_float,
        default=BENCHMARK["run_seconds"],
        help="measured seconds per run (default: %(default)s, BENCHMARK.json's run_seconds)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload and bootstrap seed (default: 0)"
    )
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)

    revisions = {"base": args.base, "head": args.head or "HEAD"}
    commits = {}
    for side, revision in revisions.items():
        try:
            commits[side] = git("rev-parse", "--verify", f"{revision}^{{commit}}")
        except subprocess.CalledProcessError:
            print(f"ab: not a commit: {revision}", file=sys.stderr)
            return 2
    labels = {side: commit[:7] for side, commit in commits.items()}
    if args.head is None:
        labels["head"] = "worktree"

    record = {
        "base": {"revision": labels["base"], "commit": commits["base"]},
        "head": {"revision": labels["head"], "commit": commits["head"]},
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "settings": {
            "workloads": workloads,
            "pairs": args.pairs,
            "seconds": args.seconds,
            "seed": args.seed,
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {
            "base": checkout(commits["base"], scratch),
            "head": snapshot(scratch) if args.head is None else checkout(commits["head"], scratch),
        }
        try:
            for workload in workloads:
                print(f"{workload}: {labels['base']} (base) vs {labels['head']} (head)")
                record["workloads"][workload] = measure(
                    trees, labels, workload, args.pairs, args.seconds, args.seed
                )
                print(format_workload(workload, record["workloads"][workload], args.pairs))
        except RunFailed as error:
            print(f"ab: {error}", file=sys.stderr)
            return 1

    regressions = [
        f"{workload} {metric}"
        for workload, measured in record["workloads"].items()
        for metric, summary in measured["metrics"].items()
        if summary["regression"]
    ]
    record["regressions"] = regressions
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    name = f"AB_{labels['base']}_{labels['head']}"
    measured = [workload for workload in WORKLOADS if workload in workloads]
    if len(measured) < len(WORKLOADS):
        name += "_" + "+".join(measured)
    if args.seed:
        name += f"_seed{args.seed}"
    path = RECORD_DIR / f"{name}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    if regressions:
        print(
            "ab: every pair lost with the median above its limit, or interval wholly "
            f"above its limit: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
