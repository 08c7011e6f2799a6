"""Analysis harness reproducing the paper's profiling figures and tables."""

from .ratio import ratio_points, RatioPoint
from .l1_bandwidth import bandwidth_points, l1_bandwidth_profile, BandwidthPoint
from .memory_wall import memory_wall_table, MemoryWallRow
from .reporting import ascii_chart, ascii_table
from .gantt import render_gantt

__all__ = [
    "ratio_points",
    "RatioPoint",
    "l1_bandwidth_profile",
    "bandwidth_points",
    "BandwidthPoint",
    "memory_wall_table",
    "MemoryWallRow",
    "ascii_chart",
    "ascii_table",
    "render_gantt",
]
