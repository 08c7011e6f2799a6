"""Cube/vector execution-time ratio profiles (Figures 4-8).

For every layer group of a model, compile it for a core design point and
report the ratio of cube busy cycles to vector busy cycles.  Ratios above
1 mean vector time hides under cube time — the resource-matching design
target of Section 2.4.

Points are read off :class:`~repro.profiling.counters.PerfCounters` —
the shared registry every figure consumes — whose per-pipe fields are
defined to equal the compiled layers' busy-cycle sums, so the published
numbers are unchanged by the indirection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..isa.pipes import Pipe
from ..profiling.counters import PerfCounters

__all__ = ["RatioPoint", "ratio_points"]


@dataclass(frozen=True)
class RatioPoint:
    """One layer's point on a Figure 4-8 line chart."""

    layer: str
    ratio: float
    cube_cycles: int
    vector_cycles: int

    @property
    def vector_hidden(self) -> bool:
        """True when vector time fully hides under cube time."""
        return self.ratio >= 1.0


def ratio_points(
    named_counters: Sequence[Tuple[str, PerfCounters]],
) -> List[RatioPoint]:
    """Figure 4-8 points from any ``(layer, counters)`` series."""
    return [
        RatioPoint(
            layer=name,
            ratio=counters.cube_vector_ratio,
            cube_cycles=counters.busy(Pipe.M),
            vector_cycles=counters.busy(Pipe.V),
        )
        for name, counters in named_counters
    ]
