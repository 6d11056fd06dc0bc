#!/usr/bin/env python3
"""Ingesting an externally captured trace and sweeping it through Fig. 4.

This example fabricates a small valgrind-lackey capture (in the real world:
``valgrind --tool=lackey --trace-mem=yes ./app 2> app.lackey``), then walks
the full ingestion pipeline:

1. parse the lackey text into a :class:`~repro.workloads.columnar.ColumnarTrace`,
2. drop the warm-up prefix and window the region of interest,
3. interleave it with a second trace into one multiprogrammed workload,
4. write the compact binary ``.rtrc`` form and read it back bit-identically,
5. register the trace and run it through the campaign engine next to a
   synthetic benchmark — cells are keyed by the trace's content hash, so a
   store-backed run of this sweep would resume across processes.

Run with::

    python examples/ingest_real_trace.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.campaign import CampaignSpec, ParallelExecutor
from repro.sim.config import SimulationConfig
from repro.workloads import (
    ColumnarTrace,
    dump_rtrc,
    interleave,
    load_trace,
    register_trace,
    skip_warmup,
    window,
)

# A fabricated lackey capture: a tight loop loading two arrays, storing one.
LACKEY_TEXT = "".join(
    f"I  {0x401000 + 4 * i:x},4\n"
    f" L {0x10000 + 8 * i:x},8\n"
    f" L {0x20000 + 8 * i:x},8\n"
    f" S {0x30000 + 8 * i:x},8\n"
    for i in range(400)
)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        capture = Path(tmp) / "app.lackey"
        capture.write_text(LACKEY_TEXT)

        # 1-2. Parse, then trim: skip the first 200 instructions (warm-up),
        # keep a 1000-instruction region of interest.
        trace = load_trace(capture)
        trace = window(skip_warmup(trace, 200), 0, 1000)
        print(f"ingested: {trace.summary()}")

        # 3. A second 'program' for the multiprogrammed mix.
        other = load_trace(capture, name="app2")
        mix = interleave([trace, other], granularity=32, name="mix")
        print(f"interleaved: {mix.summary()}")

        # 4. Binary round trip.
        rtrc = Path(tmp) / "mix.rtrc"
        dump_rtrc(mix, rtrc)
        restored = ColumnarTrace.load(rtrc)
        assert restored.to_bytes() == mix.to_bytes()
        print(f"round-tripped {rtrc.stat().st_size} bytes, fingerprint "
              f"{restored.fingerprint()[:12]}")

        # 5. Sweep it alongside a synthetic benchmark.
        handle = register_trace(restored)
        spec = CampaignSpec(
            name="ingest-example",
            configurations=(SimulationConfig.base_1ldst(), SimulationConfig.malec()),
            benchmarks=("gzip", handle.name),
            instructions=2_000,
        )
        results = ParallelExecutor(jobs=1).run(spec)
        for run in results.runs:
            normalized = run.normalized_cycles("Base1ldst")
            print(f"  {run.benchmark:<16s} MALEC time x{normalized['MALEC']:.3f}")


if __name__ == "__main__":
    main()
