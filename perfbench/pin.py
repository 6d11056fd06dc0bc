"""Re-pin the seed-0 result digests that ``run.py`` checks outputs against.

Run only when a change deliberately alters simulation results (the same
rule as ``tests/golden/regenerate.py``)::

    python3 perfbench/pin.py

serve-mixed is checked against ``tests/golden/fig4_mini.json`` instead.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import JOBS, PINNED, ROOT, run_pass


def main() -> int:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=scratch))
    pinned = {}
    try:
        for workload, jobs in JOBS.items():
            if workload == "serve-mixed":
                continue
            out = run_pass(workload, 0, jobs, work)
            pinned[workload] = {"cells": out["cells"], "frontier": out.get("frontier")}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(len(item['cells']) for item in pinned.values())} cells to {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
