"""Timing-engine tests: Figure 3 semantics (parallel pipes + barriers)."""

import pytest

from repro.config import ASCEND_MAX
from repro.core import CostModel
from repro.core.engine import schedule
from repro.dtypes import FP16, FP32
from repro.errors import DeadlockError
from repro.isa import (
    CopyInstr,
    CubeMatmul,
    MemSpace,
    Pipe,
    Program,
    Region,
    ScalarInstr,
    SetFlag,
    WaitFlag,
)


@pytest.fixture
def costs():
    return CostModel(ASCEND_MAX)


def _mm():
    return CubeMatmul(
        a=Region(MemSpace.L0A, 0, (16, 16), FP16),
        b=Region(MemSpace.L0B, 0, (16, 16), FP16),
        c=Region(MemSpace.L0C, 0, (16, 16), FP32),
    )


def _load():
    return CopyInstr(
        dst=Region(MemSpace.L0A, 0, (16, 16), FP16),
        src=Region(MemSpace.L1, 0, (16, 16), FP16),
    )


class TestParallelism:
    def test_independent_pipes_overlap(self, costs):
        """Without flags, cube work and MTE work run concurrently."""
        prog = Program([_load(), _mm()])
        trace = schedule(prog, costs)
        mte = next(e for e in trace.events if e.pipe is Pipe.MTE1)
        cube = next(e for e in trace.events if e.pipe is Pipe.M)
        assert cube.start < mte.end  # overlapped, not serialized

    def test_flag_serializes_producer_consumer(self, costs):
        prog = Program([
            _load(),
            SetFlag(src_pipe=Pipe.MTE1, dst_pipe=Pipe.M, event_id=0),
            WaitFlag(src_pipe=Pipe.MTE1, dst_pipe=Pipe.M, event_id=0),
            _mm(),
        ])
        trace = schedule(prog, costs)
        mte = next(e for e in trace.events if e.pipe is Pipe.MTE1
                   and isinstance(e.instr, CopyInstr))
        cube = next(e for e in trace.events if isinstance(e.instr, CubeMatmul))
        assert cube.start >= mte.end

    def test_same_pipe_is_in_order(self, costs):
        prog = Program([_mm(), _mm(), _mm()])
        trace = schedule(prog, costs)
        cube_events = [e for e in trace.events if e.pipe is Pipe.M]
        for a, b in zip(cube_events, cube_events[1:]):
            assert b.start >= a.end

    def test_set_before_wait_in_program_order_not_required(self, costs):
        """A wait may precede its set in program order across pipes."""
        prog = Program([
            WaitFlag(src_pipe=Pipe.S, dst_pipe=Pipe.M, event_id=0),
            _mm(),
            ScalarInstr(op="prep", cycles=5),
            SetFlag(src_pipe=Pipe.S, dst_pipe=Pipe.M, event_id=0),
        ])
        trace = schedule(prog, costs)
        cube = next(e for e in trace.events if isinstance(e.instr, CubeMatmul))
        assert cube.start >= 6  # after the 5-cycle scalar op + set


class TestDeadlocks:
    def test_wait_without_set_deadlocks(self, costs):
        prog = Program([WaitFlag(src_pipe=Pipe.MTE1, dst_pipe=Pipe.M,
                                 event_id=0)])
        with pytest.raises(DeadlockError, match="stalled"):
            schedule(prog, costs)

    def test_crossed_waits_deadlock(self, costs):
        # M waits on V's set, which V only issues after waiting on M.
        prog = Program([
            WaitFlag(src_pipe=Pipe.V, dst_pipe=Pipe.M, event_id=0),
            SetFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=1),
            WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=1),
            SetFlag(src_pipe=Pipe.V, dst_pipe=Pipe.M, event_id=0),
        ])
        # V can proceed (its wait is satisfied by M's set... which M
        # issues only after ITS wait) — a genuine cycle.
        with pytest.raises(DeadlockError):
            schedule(prog, costs)


class TestTraceAccounting:
    def test_total_cycles_is_max_end(self, costs):
        trace = schedule(Program([_mm(), _load()]), costs)
        assert trace.total_cycles == max(e.end for e in trace.events)

    def test_busy_cycles_by_pipe(self, costs):
        trace = schedule(Program([_mm(), _mm()]), costs)
        one = costs.cost_columns(Program([_mm()]).arena)[0]
        assert trace.busy_cycles(Pipe.M) == 2 * one
        assert trace.busy_cycles(Pipe.V) == 0

    def test_events_sorted_causally(self, costs):
        prog = Program([
            _load(),
            SetFlag(src_pipe=Pipe.MTE1, dst_pipe=Pipe.M, event_id=0),
            WaitFlag(src_pipe=Pipe.MTE1, dst_pipe=Pipe.M, event_id=0),
            _mm(),
        ])
        trace = schedule(prog, costs)
        starts = [e.start for e in trace.events]
        assert starts == sorted(starts)

    def test_l1_traffic_accounting(self, costs):
        summary = schedule(Program([_load()]), costs).summary()
        assert summary.l1_read_bytes == 512  # 16x16 fp16
        assert summary.l1_write_bytes == 0

    def test_empty_program(self, costs):
        trace = schedule(Program([]), costs)
        assert trace.total_cycles == 0
