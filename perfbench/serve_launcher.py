"""``repro serve`` with the benchmark's layer wrappers installed.

The traced serve-mixed pass starts this instead of ``python -m repro serve``::

    PYTHONPATH=src python3 -u perfbench/serve_launcher.py --spans FILE \\
        --store sqlite:DB --port 0 --jobs 1

It prints the same ``listening on URL`` line, serves until SIGINT, then
writes the recorded spans, counters and executor timings to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402  (the benchmark's own module)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    from repro.serve import ReproServer

    tracer = tracing.Tracer()
    tracing.install(tracer)
    server = ReproServer(args.store, port=args.port, jobs=args.jobs)
    print(f"repro serve (traced): listening on {server.url}", flush=True)
    server.serve_forever()
    data = tracing.snapshot(tracer)
    data["executor"] = tracing.executor_metrics(tracer.executors)
    Path(args.spans).write_text(json.dumps(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
