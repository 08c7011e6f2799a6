"""Plain-text rendering of tables and line charts for the bench harness.

Every benchmark prints the same rows/series the paper reports; these
helpers keep that output uniform and diff-friendly.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

__all__ = ["ascii_table", "ascii_chart"]


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                title: str = "") -> str:
    """Fixed-width table with a separator under the header row."""
    str_rows = [[_stringify(c) for c in row] for row in rows]
    table = [list(headers)] + str_rows
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def ascii_chart(series: Sequence[Tuple[str, float]], width: int = 50,
                title: str = "", marker_at: Optional[float] = None) -> str:
    """Horizontal bar chart: one labeled bar per point.

    ``marker_at`` draws a vertical reference line (e.g. ratio = 1 in the
    Figure 4-8 charts).
    """
    finite = [v for _, v in series if math.isfinite(v)]
    if not finite:
        return title
    top = max(max(finite), marker_at or 0.0)

    def scale(v: float) -> float:
        return v / top if top else 0.0

    label_w = max(len(name) for name, _ in series)
    marker_col = int(scale(marker_at) * width) if marker_at else None
    lines = [title] if title else []
    for name, value in series:
        if not math.isfinite(value):
            bar = "#" * width + " inf"
        else:
            filled = int(round(scale(value) * width))
            bar = "#" * filled + " " * (width - filled)
            if marker_col is not None and 0 <= marker_col < width:
                marks = list(bar)
                if marks[marker_col] == " ":
                    marks[marker_col] = "|"
                bar = "".join(marks)
            bar = bar.rstrip() or "."
            bar = f"{bar} {value:.2f}"
        lines.append(f"{name.ljust(label_w)} {bar}")
    return "\n".join(lines)


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "-"
        magnitude = abs(cell)
        if magnitude and (magnitude >= 1e5 or magnitude < 1e-3):
            return f"{cell:.3g}"
        return f"{cell:.2f}".rstrip("0").rstrip(".")
    return str(cell)
