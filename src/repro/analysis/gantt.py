"""ASCII Gantt rendering of execution traces — Figure 3 made visible.

One row per pipe, time flowing right; busy intervals are drawn with the
instruction class's letter (M cube, V vector, 1/2/3 the MTEs, s scalar).
Used by examples and handy when debugging synchronization in compiled
kernels.

Binning is columnar: intervals are clipped and painted per pipe with
difference-array coverage over the trace's numpy columns, so rendering a
million-event trace never materializes an event object.  Column edges
are computed in exact integer arithmetic — an event ending on a bin
boundary covers up to that boundary and no further, an event starting on
one begins exactly there, and zero-duration events (no occupied cycles)
paint nothing.  The float-scale version of this code could shift either
edge by one column when ``cycle * width / span`` landed within an ulp of
an integer, which double-painted or dropped boundary bins.

The per-row busy totals come from one :class:`~repro.profiling.counters.
PerfCounters` pass over the trace rather than per-pipe re-aggregation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.trace import ExecutionTrace
from ..isa.arena import FLAG_OPS
from ..isa.pipes import Pipe

__all__ = ["render_gantt"]

_GLYPH = {
    Pipe.M: "M",
    Pipe.V: "V",
    Pipe.MTE1: "1",
    Pipe.MTE2: "2",
    Pipe.MTE3: "3",
    Pipe.S: "s",
}


def render_gantt(trace: ExecutionTrace, width: int = 100,
                 window: Optional[tuple] = None) -> str:
    """Render per-pipe occupancy over (a window of) the trace.

    Flag bookkeeping (1-cycle events) is omitted; only payload
    instructions draw.  ``window`` is an optional (start, end) cycle
    range; default is the whole trace.
    """
    from ..profiling.counters import PerfCounters

    total = trace.total_cycles
    if total == 0:
        return "(empty trace)"
    lo, hi = window or (0, total)
    hi = min(hi, total)
    if hi <= lo:
        raise ValueError(f"bad window [{lo}, {hi})")
    span = int(hi - lo)
    lo = int(lo)

    starts = trace.starts
    ends = trace.ends
    pipes = trace.pipes
    # Half-open [start, end) vs half-open [lo, hi): an event ending at lo
    # or starting at hi is outside; a zero-duration event occupies no
    # cycles and never paints.
    visible = (~np.isin(trace.arena.kind, FLAG_OPS) & (ends > lo)
               & (starts < hi) & (ends > starts))
    start_clip = np.clip(starts, lo, hi) - lo
    end_clip = np.clip(ends, lo, hi) - lo
    # Exact integer binning over [0, span) -> [0, width): floor for the
    # leading edge, ceiling for the trailing edge, so a boundary-aligned
    # end never bleeds into the next column and interior events still
    # paint at least one column.
    start_col = start_clip * width // span
    end_col = np.maximum(start_col + 1, -((end_clip * width) // -span))

    counters = PerfCounters.from_trace(trace)
    lines = [f"cycles [{lo}, {hi})  ('{_GLYPH[Pipe.M]}'=cube, "
             f"'{_GLYPH[Pipe.V]}'=vector, '1/2/3'=MTE, 's'=scalar)"]
    for pipe in (Pipe.MTE2, Pipe.MTE1, Pipe.M, Pipe.V, Pipe.MTE3, Pipe.S):
        mask = visible & (pipes == int(pipe))
        covered = np.zeros(width, bool)
        if mask.any():
            # Difference-array coverage: +1 at each interval start, -1
            # past its end; a positive running sum marks a busy column.
            diff = np.zeros(width + 1, np.int64)
            np.add.at(diff, start_col[mask], 1)
            np.add.at(diff, end_col[mask], -1)
            covered = np.cumsum(diff[:width]) > 0
        body = "".join(_GLYPH[pipe] if c else " " for c in covered)
        if body.strip() or pipe is not Pipe.S:
            busy = counters.busy(pipe)
            lines.append(f"{pipe.name:>4} |{body}| {busy:,}")
    return "\n".join(lines)
