"""Exact order-statistic latency metrics.

``np.quantile``'s default ``linear`` interpolation invents cycle counts
that no request ever saw (the p50 of ``[1, 2, 3, 4]`` becomes ``2.5``)
and its float arithmetic can flip the reported percentile between
platforms when two methods straddle a sample.  Serving SLO numbers must
be *exact order statistics*: :func:`latency_summary` reads the
nearest rank (:func:`_rank`) off the sorted integer cycle counts — the
returned value is always one of the observed samples, computed with
exact (Fraction) rank arithmetic, so p50/p99 are byte-identical across
runs, seeds, and platforms.

(The predictor's MAPE reporting keeps ``np.quantile`` — an error
*summary* may interpolate; an SLO *attainment* number may not.)
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Sequence

from ..errors import SchedulingError

__all__ = ["latency_summary"]


def _rank(pct: float, n: int) -> int:
    """0-based nearest rank of ``pct`` in ``n`` sorted samples.

    The rank is ``ceil(pct/100 * n) - 1`` computed in exact rational
    arithmetic (the float ``pct`` converts to a Fraction losslessly), so
    boundary cases like ``pct=25`` on ``n=4`` never depend on the
    platform's rounding of ``0.25 * 4``.
    """
    if not 0 < pct <= 100:
        raise SchedulingError(f"percentile must lie in (0, 100], got {pct}")
    return max(0, math.ceil(Fraction(pct) * n / 100) - 1)


def latency_summary(cycles: Sequence[int]) -> Dict[str, int]:
    """p50/p90/p99/max of integer latencies, all exact order statistics.

    The sample is sorted once.  The mean is reported in integer cycles
    (floor of the exact mean) so the whole summary is reproducible
    bit-for-bit.
    """
    if not cycles:
        return {"count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0, "mean": 0}
    ordered = sorted(int(v) for v in cycles)
    n = len(ordered)
    return {
        "count": n,
        "p50": ordered[_rank(50, n)],
        "p90": ordered[_rank(90, n)],
        "p99": ordered[_rank(99, n)],
        "max": ordered[-1],
        "mean": sum(ordered) // n,
    }
