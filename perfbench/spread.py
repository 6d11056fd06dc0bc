"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per workload and seed, untraced, and prints for every
end-to-end metric the median, the quartiles and the spread (quartile
distance over median, from ``statistics.quantiles(values, n=4)``).  With
``--sets 2`` it repeats the whole set on new seeds and prints how much the
second median moved against the first::

    python3 perfbench/spread.py --workloads fig4-sim sweep-json --seeds 5
    python3 perfbench/spread.py --seeds 10 --sets 2 --first-seed 21 \\
        --out perfbench/baseline/REV.json

``--out`` writes every run, the summaries and one traced run per workload
as JSON (the form of the files under ``baseline/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402  (the benchmark's own module)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    process = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {process.returncode}:\n{process.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["run_s"] = time.monotonic() - started
    return result


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    record = {
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds} --trace 0|1",
        "host": {
            "cpu": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "os": f"{platform.system()} {platform.release()}",
            "python": platform.python_version(),
        },
    }
    firsts = {}
    seed = args.first_seed
    for number in range(1, args.sets + 1):
        seeds = list(range(seed, seed + args.seeds))
        seed += args.seeds
        label = f"set_{number}_seeds_{seeds[0]}_{seeds[-1]}"
        record[label] = {}
        for workload in args.workloads:
            runs = [run_once(workload, value, args.seconds, 0) for value in seeds]
            summary = {
                "seeds": seeds,
                "attempted": sum(run["attempted"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
                "run_s": summarise([run["run_s"] for run in runs]),
            }
            print(f"== {label} {workload}: {summary['failed']}/{summary['attempted']} failed, "
                  f"run {summary['run_s']['median']:.1f} s (max {max(summary['run_s']['runs']):.1f} s)")
            for name, unit in END_TO_END:
                stats = summarise([run["metrics"][name]["value"] for run in runs])
                summary[name] = stats
                line = (f"  {name:<12} median {stats['median']:.6g} {unit}  "
                        f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}")
                first = firsts.setdefault((workload, name), stats["median"])
                if number > 1:
                    line += f"  vs set 1 {stats['median'] / first - 1:+.4f}"
                print(line, flush=True)
            record[label][workload] = summary
    if args.out:
        record["traced"] = {
            workload: run_once(workload, args.first_seed, args.seconds, 1)["metrics"]
            for workload in args.workloads
        }
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
