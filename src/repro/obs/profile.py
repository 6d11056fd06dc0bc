"""``repro profile``: cProfile over a campaign preset, flamegraph-ready.

The profiled workload is one campaign preset (``fig4``, ``fig4-mini``,
``sec6d``) run through ``ParallelExecutor(jobs=1)``: the serial path keeps
every cell in this process, where cProfile can see it (a pool worker's
time would show up only as pickling).  The run renders two views:

* a ``pstats`` top-N table (cumulative time), printed to stdout;
* a **collapsed-stack** file (``caller;callee count`` lines, the input
  format of Brendan Gregg's ``flamegraph.pl`` and of speedscope's
  "Brendan Gregg" importer) via ``--collapsed FILE``.

cProfile records a caller->callee graph, not full stacks, so the collapsed
output expands each edge into a two-frame stack weighted by the callee's own
time on that edge.  That is an approximation of a true stack profile —
widths are exact per edge, nesting deeper than two frames is not — but it
is enough to eyeball where the simulator's self-time concentrates, with
zero new dependencies.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import campaign_preset

__all__ = ["run_profile", "collapsed_stacks", "format_profile"]


def _frame_label(func: Tuple[str, int, str]) -> str:
    """``module.py:name`` label for one pstats function key."""
    filename, lineno, name = func
    if filename == "~":
        return f"<built-in>:{name}"
    return f"{Path(filename).name}:{name}"


def collapsed_stacks(stats: pstats.Stats, scale: float = 1e6) -> List[str]:
    """Render pstats data as collapsed-stack lines (``stack count``).

    One line per caller->callee edge, weighted by the callee's *own* time
    attributed to that edge (microseconds by default); root functions (no
    recorded caller) emit a single-frame line.  Zero-weight edges are
    dropped — flamegraph renderers ignore them anyway.
    """
    lines: List[str] = []
    for func, (_cc, _nc, tottime, _cumtime, callers) in stats.stats.items():
        label = _frame_label(func)
        if not callers:
            weight = int(tottime * scale)
            if weight > 0:
                lines.append(f"{label} {weight}")
            continue
        for caller, (_ccc, _cnc, caller_tottime, _cct) in callers.items():
            weight = int(caller_tottime * scale)
            if weight > 0:
                lines.append(f"{_frame_label(caller)};{label} {weight}")
    return sorted(lines)


def format_profile(stats: pstats.Stats, top: int = 25) -> str:
    """The pstats cumulative-time top-N table as a string."""
    buffer = io.StringIO()
    stats.stream = buffer
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def run_profile(
    preset: str,
    instructions: Optional[int] = None,
    top: int = 25,
    collapsed_out: Optional[Union[str, Path]] = None,
) -> Tuple[str, int]:
    """Profile one serial run of a campaign preset; returns (report text,
    stack-line count).

    ``instructions`` overrides the preset's trace length.  Raises
    ``KeyError`` for unknown presets (see :func:`campaign_preset`).
    """
    spec = campaign_preset(preset).with_overrides(instructions=instructions)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        ParallelExecutor(jobs=1).run(spec)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    report = format_profile(stats, top=top)
    lines = collapsed_stacks(stats)
    if collapsed_out is not None:
        target = Path(collapsed_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(lines) + "\n" if lines else "")
    return report, len(lines)
