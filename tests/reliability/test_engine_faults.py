"""Sync and stall faults through the timing engine's drain.

Programs built from objects and programs built arena-first take the same
drain, so both get the static wait->set fault semantics.
"""

import pytest

from repro.config import ASCEND_MAX
from repro.core import CostModel
from repro.core.engine import schedule
from repro.dtypes import FP16, FP32
from repro.errors import DeadlockError
from repro.isa import (
    CubeMatmul,
    MemSpace,
    Pipe,
    Program,
    Region,
    ScalarInstr,
    SetFlag,
    WaitFlag,
)
from repro.reliability import FaultPlan, StallFault, fault_scope, \
    parse_fault_spec

from tests.core.oracle import schedule_fixpoint

pytestmark = pytest.mark.faults


@pytest.fixture
def costs():
    return CostModel(ASCEND_MAX)


def _mm():
    return CubeMatmul(
        a=Region(MemSpace.L0A, 0, (16, 16), FP16),
        b=Region(MemSpace.L0B, 0, (16, 16), FP16),
        c=Region(MemSpace.L0C, 0, (16, 16), FP32),
    )


def _synced_instrs():
    """A legal program whose only M work is gated on one flag."""
    return [
        ScalarInstr(op="prep", cycles=5),
        SetFlag(src_pipe=Pipe.S, dst_pipe=Pipe.M, event_id=0),
        WaitFlag(src_pipe=Pipe.S, dst_pipe=Pipe.M, event_id=0),
        _mm(),
    ]


def _variants():
    """(label, program, scheduler): object-built and arena-first programs
    through the drain, plus the fixpoint oracle."""
    return [
        ("object", Program(_synced_instrs()), schedule),
        ("arena", Program.from_arena(Program(_synced_instrs()).arena),
         schedule),
        ("fixpoint", Program(_synced_instrs()), schedule_fixpoint),
    ]


class TestSyncDrop:
    def test_dropped_set_becomes_structured_deadlock(self, costs):
        plan = parse_fault_spec("seed=1;sync:action=drop,p=1")
        for label, prog, scheduler in _variants():
            if label == "fixpoint":
                continue  # the oracle models no faults
            with fault_scope(plan) as inj:
                with pytest.raises(DeadlockError) as exc:
                    scheduler(prog, costs)
                report = exc.value.report
                assert report is not None, label
                assert report.injected, label
                assert "injected" in report.describe(), label
                assert inj.counters["sync_dropped"] >= 1, label

    def test_clean_run_without_plan(self, costs):
        for label, prog, scheduler in _variants():
            trace = scheduler(prog, costs)
            assert trace.total_cycles > 0, label


class TestSyncDupReorder:
    @pytest.mark.parametrize("action", ["dup", "reorder"])
    def test_never_an_unstructured_crash(self, costs, action):
        plan = parse_fault_spec(f"seed=3;sync:action={action},p=1")
        counter = {"dup": "sync_duplicated", "reorder": "sync_reordered"}
        clean = schedule(Program(_synced_instrs()), costs).total_cycles
        for label, prog, scheduler in _variants():
            if label == "fixpoint":
                continue
            with fault_scope(plan) as inj:
                # One producer, one consumer: dup leaves a harmless extra
                # flag; reorder has nothing to swap with.  Either way the
                # schedule completes, unchanged, and the event is
                # accounted for.
                trace = scheduler(prog, costs)
                assert trace.total_cycles == clean, label
                assert inj.counters[counter[action]] >= 1, label

    def test_reorder_across_two_flags_still_schedules(self, costs):
        instrs = [
            ScalarInstr(op="a", cycles=5),
            SetFlag(src_pipe=Pipe.S, dst_pipe=Pipe.M, event_id=0),
            ScalarInstr(op="b", cycles=9),
            SetFlag(src_pipe=Pipe.S, dst_pipe=Pipe.M, event_id=0),
            WaitFlag(src_pipe=Pipe.S, dst_pipe=Pipe.M, event_id=0),
            _mm(),
            WaitFlag(src_pipe=Pipe.S, dst_pipe=Pipe.M, event_id=0),
            _mm(),
        ]
        plan = parse_fault_spec("seed=3;sync:action=reorder,p=1")
        for prog in [Program(list(instrs)),
                     Program.from_arena(Program(list(instrs)).arena)]:
            with fault_scope(plan):
                trace = schedule(prog, costs)
                assert trace.total_cycles > 0


class TestStallFaults:
    def test_stalls_stretch_the_schedule(self, costs):
        instrs = [_mm() for _ in range(8)]
        baseline = schedule(Program(list(instrs)), costs).total_cycles
        plan = FaultPlan(seed=2, stall=(StallFault(pipe="*", factor=8.0,
                                                   probability=1.0),))
        for prog in [Program(list(instrs)),
                     Program.from_arena(Program(list(instrs)).arena)]:
            with fault_scope(plan) as inj:
                stalled = schedule(prog, costs).total_cycles
                assert stalled > baseline
                assert inj.counters["stall_injected"] >= len(instrs)

    def test_pipe_filter_only_hits_named_pipe(self, costs):
        instrs = [ScalarInstr(op="s", cycles=10), _mm()]
        baseline = schedule(Program(list(instrs)), costs)
        plan = FaultPlan(seed=2, stall=(StallFault(pipe="M", factor=4.0,
                                                   probability=1.0),))
        with fault_scope(plan):
            stalled = schedule(Program(list(instrs)), costs)
        assert stalled.busy_cycles(Pipe.S) == baseline.busy_cycles(Pipe.S)
        assert stalled.busy_cycles(Pipe.M) > baseline.busy_cycles(Pipe.M)

    def test_deterministic_under_seed(self, costs):
        instrs = [_mm() for _ in range(16)]
        plan = parse_fault_spec("seed=9;stall:factor=3,p=0.5")
        with fault_scope(plan):
            first = schedule(Program(list(instrs)), costs).total_cycles
        with fault_scope(plan):
            second = schedule(Program(list(instrs)), costs).total_cycles
        assert first == second
