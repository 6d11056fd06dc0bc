"""Host identity facts stamped into the telemetry journal.

Two timing records are only comparable when they were taken on the same
machine, core count and interpreter, so every ``run_start`` record of the
campaign telemetry journal (``telemetry.jsonl``) carries the host block
produced here, and ``repro obs history`` shows it beside each run.
"""

from __future__ import annotations

import os
import platform
import subprocess
from functools import lru_cache
from typing import Optional

__all__ = ["detect_revision", "host_metadata"]


@lru_cache(maxsize=None)
def _git_revision() -> Optional[str]:
    """``git rev-parse --short HEAD``, or ``None`` outside git.

    Asked once per process: the process keeps running the code it
    imported, whatever the tree's HEAD moves to later, so the first answer
    is also the truest one, and every later run header costs no subprocess.
    """
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else None


def detect_revision(default: str = "worktree") -> str:
    """Short git revision of the working tree, or ``default`` outside git."""
    return _git_revision() or default


def host_metadata(revision: Optional[str] = None) -> dict:
    """The host facts that make two timing records (in)comparable.

    Recorded in every bench report and every telemetry run header;
    comparison commands warn when they differ, because a timing delta
    between different machines, core counts or interpreter versions
    measures the hosts, not the code.
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "revision": revision if revision is not None else detect_revision(),
    }
