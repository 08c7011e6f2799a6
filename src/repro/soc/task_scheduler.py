"""Multi-level scheduling (Section 5.2, Figure 17).

Three levels map onto this module:

* **application level** — several streams run concurrently on one SoC;
* **stream & task level** — tasks within a stream execute in order;
* **block level** — each task's blocks spread across Ascend cores.

The scheduler is a greedy list scheduler with earliest-available-core
placement, which is how the shipped runtime behaves for data-parallel
blocks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..compiler.stream import Block, Stream, Task
from ..errors import SchedulingError

__all__ = ["TaskScheduler", "ScheduleResult", "BlockPlacement"]

_TASK_LAUNCH_OVERHEAD = 2000  # cycles: runtime dispatch of one task


@dataclass(frozen=True)
class BlockPlacement:
    """Where and when one block ran."""

    block: Block
    stream: str
    task: str
    core: int
    start: int
    end: int


@dataclass
class ScheduleResult:
    """A complete schedule of streams over cores."""

    placements: List[BlockPlacement]
    core_count: int

    @property
    def makespan(self) -> int:
        return max((p.end for p in self.placements), default=0)

    def utilization(self) -> float:
        span = self.makespan
        if span == 0:
            return 0.0
        busy = sum(p.end - p.start for p in self.placements)
        return busy / (span * self.core_count)

    def stream_finish(self, stream: str) -> int:
        return max((p.end for p in self.placements if p.stream == stream), default=0)


class TaskScheduler:
    """Schedules one or more streams over ``core_count`` Ascend cores."""

    def __init__(self, core_count: int,
                 task_launch_overhead: int = _TASK_LAUNCH_OVERHEAD) -> None:
        if core_count <= 0:
            raise SchedulingError("need at least one core")
        self.core_count = core_count
        self.task_launch_overhead = task_launch_overhead

    def schedule(self, streams: Sequence[Stream]) -> ScheduleResult:
        """Greedy schedule.

        In-order within a stream: task t+1's blocks start only after all
        of task t's blocks finish (the runtime's stream semantics).
        Across streams, blocks compete for cores; earliest-free core wins.
        """
        core_free = [0] * self.core_count  # next free cycle per core
        placements: List[BlockPlacement] = []
        # Per-stream frontier: when its previous task completed.
        frontier: Dict[str, int] = {s.name: 0 for s in streams}
        # Round-robin across streams, task by task, to model concurrent apps.
        cursors = [0] * len(streams)
        remaining = sum(len(s) for s in streams)
        while remaining:
            progressed = False
            for idx, stream in enumerate(streams):
                if cursors[idx] >= len(stream):
                    continue
                task = stream.tasks[cursors[idx]]
                ready = frontier[stream.name] + self.task_launch_overhead
                task_end = ready
                for block in task.blocks:
                    core = min(range(self.core_count), key=lambda c: core_free[c])
                    start = max(core_free[core], ready)
                    end = start + block.cycles
                    core_free[core] = end
                    task_end = max(task_end, end)
                    placements.append(BlockPlacement(
                        block=block, stream=stream.name, task=task.name,
                        core=core, start=start, end=end,
                    ))
                frontier[stream.name] = task_end
                cursors[idx] += 1
                remaining -= 1
                progressed = True
            if not progressed:  # pragma: no cover - loop always progresses
                raise SchedulingError("scheduler stalled")
        return ScheduleResult(placements=placements, core_count=self.core_count)
