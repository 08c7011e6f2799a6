"""Stream / Task / Block representations (Section 5.2, Figure 17).

The Graph Engine compiles an application into *streams* of in-order
*tasks*; each task splits into *blocks* that execute in parallel on
different Ascend cores.  These objects are what the SoC task scheduler
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import SchedulingError
from ..graph.workload import OpWorkload

__all__ = ["Block", "Task", "Stream"]


@dataclass(frozen=True)
class Block:
    """The unit of core-level parallelism: a share of one task's work.

    ``cycles`` is the block's single-core execution time at the target
    core design point, precomputed by the Graph Engine.
    """

    name: str
    cycles: int
    gm_read_bytes: int = 0
    gm_write_bytes: int = 0

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise SchedulingError(f"block {self.name!r} has negative cycles")


@dataclass
class Task:
    """One in-order step of a stream (typically one layer group)."""

    name: str
    blocks: List[Block] = field(default_factory=list)
    workload: Optional[OpWorkload] = None

    @property
    def critical_cycles(self) -> int:
        """Lower bound on task latency given unlimited cores."""
        return max((b.cycles for b in self.blocks), default=0)


@dataclass
class Stream:
    """An in-order task sequence; streams from one app run concurrently."""

    name: str
    tasks: List[Task] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tasks)
