"""The rescan-to-fixpoint scheduler: the oracle the drain suites compare to.

An independent, deliberately naive implementation of the Figure 3
semantics.  It walks the per-pipe queues round-robin, retiring each
pipe's head until it hits a ``wait_flag`` whose channel FIFO is empty,
and repeats until no pipe makes progress.  It shares nothing with
:mod:`repro.core.engine` but the PSQ dispatch rate and the deadlock
report builder, so agreement with the production drain is evidence, not
tautology.  It models no injected faults.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.core.costs import CostModel
from repro.core.engine import _DISPATCH_PER_CYCLE
from repro.core.trace import ExecutionTrace, TraceEvent
from repro.errors import DeadlockError
from repro.isa import Instruction, Pipe, Program, SetFlag, WaitFlag
from repro.isa.channels import pack_channel
from repro.reliability.deadlock import PipeStall, build_report

__all__ = ["schedule_fixpoint"]


def schedule_fixpoint(program: Program, costs: CostModel) -> ExecutionTrace:
    """Schedule ``program`` by rescanning every pipe until a fixpoint."""
    queues: Dict[Pipe, Deque[Tuple[int, Instruction]]] = {
        p: deque() for p in Pipe}
    for index, instr in enumerate(program):
        queues[instr.pipe].append((index, instr))

    pipe_time: Dict[Pipe, int] = {p: 0 for p in Pipe}
    # Completed set_flag times waiting to be consumed, FIFO per channel.
    flags: Dict[Tuple[Pipe, Pipe, int], Deque[int]] = {}
    events: List[TraceEvent] = []

    remaining = len(program)
    while remaining:
        progress = False
        for pipe in Pipe:
            queue = queues[pipe]
            while queue:
                index, instr = queue[0]
                dispatch_ready = index // _DISPATCH_PER_CYCLE
                start = max(pipe_time[pipe], dispatch_ready)
                if isinstance(instr, WaitFlag):
                    channel = (instr.src_pipe, instr.dst_pipe, instr.event_id)
                    pending = flags.get(channel)
                    if not pending:
                        break  # stalled: producer has not signalled yet
                    start = max(start, pending.popleft())
                end = start + costs.cost(instr)
                if isinstance(instr, SetFlag):
                    channel = (instr.src_pipe, instr.dst_pipe, instr.event_id)
                    flags.setdefault(channel, deque()).append(end)
                pipe_time[pipe] = end
                events.append(TraceEvent(index, instr, pipe, start, end))
                queue.popleft()
                remaining -= 1
                progress = True
        if not progress:
            _raise_deadlock(queues)

    events.sort(key=lambda e: (e.start, e.end, e.index))
    return ExecutionTrace(events)


def _raise_deadlock(queues) -> None:
    """Watchdog: the wait-for graph from the stalled heads and the sets
    still pending in each queue's un-executed suffix."""
    pending: Dict[int, int] = {}  # packed channel -> earliest set index
    for queue in queues.values():
        for i, instr in queue:
            if isinstance(instr, SetFlag):
                ch = pack_channel(instr.src_pipe, instr.dst_pipe,
                                  instr.event_id)
                if ch not in pending or i < pending[ch]:
                    pending[ch] = i
    stalls = []
    for pipe, queue in queues.items():
        if not queue:
            continue
        i, instr = queue[0]
        kind = type(instr).__name__
        if isinstance(instr, WaitFlag):
            ch = pack_channel(instr.src_pipe, instr.dst_pipe, instr.event_id)
            producer = pending.get(ch)
            stalls.append(PipeStall(
                pipe=str(pipe), index=i, kind=kind, channel=ch,
                producer_index=producer, never_set=producer is None))
        else:
            stalls.append(PipeStall(pipe=str(pipe), index=i, kind=kind))
    report = build_report(stalls, injected=False)
    raise DeadlockError(report.describe(), report=report)
