"""Host-speed probe that shares one CPU with a measured pass.

On a shared host a vCPU's speed drifts by up to 2x within seconds, and the
two vCPUs drift independently, so no repetition inside a run averages the
drift out.  ``run.py`` therefore pins a pass and this process to the same
CPU: the scheduler interleaves them in millisecond slices, and the rate at
which this process completes a fixed unit of work, per second of its own
CPU time, tracks the speed that CPU gave the pass at the same moments.  The rate is taken in short windows and weighted by the time other
processes ran on the CPU in each (wall time minus this process's CPU time),
so it follows the pass's busy periods and ignores the ones where the pass
sleeps.  The pass's CPU seconds times that rate, over a fixed reference
rate, is host-independent to within a few percent::

    python3 perfbench/calibrate.py --cpu 0     # prints "ready", then runs
    kill -TERM <pid>                           # prints {"units", "cpu_s", "rate", "shared_s"}
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

#: calibration units per CPU second that ``run.py`` scales to
REFERENCE_UNITS_PER_S = 400.0
UNIT_ITERATIONS = 5_000
WINDOW_S = 0.05


class _Line:
    __slots__ = ("tag", "age")

    def __init__(self, tag: int, age: int) -> None:
        self.tag = tag
        self.age = age


def unit() -> None:
    """A fixed slice of the interpreter work the simulator does: small-int
    arithmetic, dict probes, attribute stores and a short FIFO."""
    table = {}
    queue = []
    for i in range(UNIT_ITERATIONS):
        key = (i * 2654435761) & 1023
        line = table.get(key)
        if line is None:
            table[key] = _Line(key, i)
        else:
            line.age = i
        queue.append(key)
        if len(queue) > 64:
            queue.pop(0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    unit()  # warm the interpreter's caches before counting
    print("ready", flush=True)
    units = window_units = 0
    started = window_cpu = time.process_time()
    window_wall = time.monotonic()
    weighted = shared = 0.0
    while not stopping:
        unit()
        units += 1
        window_units += 1
        wall = time.monotonic()
        if wall - window_wall >= WINDOW_S:
            cpu = time.process_time()
            others = max(0.0, (wall - window_wall) - (cpu - window_cpu))
            weighted += window_units / (cpu - window_cpu) * others
            shared += others
            window_units, window_cpu, window_wall = 0, cpu, wall
    spent = time.process_time() - started
    rate = weighted / shared if shared else units / spent
    print(json.dumps({"units": units, "cpu_s": spent, "rate": rate, "shared_s": shared}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
