"""The flat program-order drain must be bit-identical to the queue drain.

The engine drain has a fast path (`_flat_drain_arena`) that
evaluates the end-time recurrence in one program-order pass whenever
every wait matches a strictly earlier set (match[i] < i, none
unmatched), plus a steady-state extrapolation over concat-repeat blocks.
Both are pure speedups: any precondition failure falls back to the
general queue drain, and these tests pin byte-identity against the
fixpoint oracle on random programs, the compiled corpus, and
hand-constructed programs that force each fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.lowering import lower_workload
from repro.config import ASCEND, ASCEND_MAX
from repro.core.costs import CostModel
from repro.core.engine import (
    engine_stats,
    reset_engine_stats,
    schedule,
    schedule_summary,
)
from repro.dtypes import FP16
from repro.graph.workload import GemmWork, OpWorkload
from repro.isa import Pipe, Program, ScalarInstr, SetFlag, WaitFlag
from repro.isa.arena import InstructionArena

from .oracle import schedule_fixpoint
from .test_engine_equivalence import _random_flagged_program

_COSTS = CostModel(ASCEND_MAX)


def _arena_program(instrs) -> Program:
    """An arena-first program (no object list of its own) for ``instrs``."""
    return Program.from_arena(InstructionArena.from_instructions(instrs))


def _assert_traces_identical(program, oracle_program=None):
    trace = schedule(program, _COSTS)
    ref = schedule_fixpoint(oracle_program or program, _COSTS)
    assert len(trace.events) == len(ref.events)
    assert np.array_equal(trace.starts, ref.starts)
    assert np.array_equal(trace.ends, ref.ends)
    assert np.array_equal(trace.pipes, ref.pipes)
    assert trace.summary() == ref.summary()
    return trace


class TestFlatDrainEquivalence:
    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 80))
    @settings(max_examples=60, deadline=None)
    def test_random_programs_bit_identical(self, seed, n):
        rng = np.random.default_rng(seed)
        program = _random_flagged_program(rng, n, allow_deadlock=False)
        _assert_traces_identical(_arena_program(program.instructions))

    def test_flat_path_engages_on_compiled_corpus(self):
        reset_engine_stats()
        graph_works = [
            OpWorkload(name="g", gemms=(GemmWork(m=96, k=96, n=96,
                                                 dtype=FP16),)),
            OpWorkload(name="v", gemms=(GemmWork(m=64, k=128, n=64,
                                                 dtype=FP16),)),
        ]
        for program in lower_workload(graph_works, ASCEND_MAX):
            assert program._instructions is None  # built from arenas
            _assert_traces_identical(program)
        stats = engine_stats()
        # Lowered programs only ever wait on already-emitted sets, so
        # every drain takes the flat path.
        assert stats["flat_drains"] > 0
        assert stats["general_drains"] == 0

    def test_forward_match_falls_back_to_general_drain(self):
        # A wait whose producing set appears *later* in program order is
        # legal (pipes run concurrently) but violates the flat-drain
        # precondition — it must take the general queue drain and still
        # match the oracle.
        instrs = [
            ScalarInstr(op="nop", cycles=3),
            WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=0),
            ScalarInstr(op="nop", cycles=2),
            SetFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=0),
        ]
        reset_engine_stats()
        _assert_traces_identical(_arena_program(instrs))
        stats = engine_stats()
        assert stats["general_drains"] > 0
        assert stats["flat_drains"] == 0


class TestRepeatExtrapolation:
    def _repeated_workload(self, count):
        return OpWorkload(
            name="stack",
            gemms=(GemmWork(m=128, k=128, n=128, dtype=FP16, count=count),),
        )

    @pytest.mark.parametrize("count", [4, 7, 12])
    def test_extrapolated_blocks_bit_identical(self, count):
        (program,) = lower_workload([self._repeated_workload(count)],
                                    ASCEND_MAX)
        assert program._instructions is None  # built from arenas
        assert program.arena.repeats  # concat recorded the block
        reset_engine_stats()
        _assert_traces_identical(program)
        assert engine_stats()["extrapolated_blocks"] > 0

    def test_below_threshold_repeats_walk_plainly(self):
        # reps < 4 are not worth verifying — the metadata is recorded
        # but the drain walks every row; results identical either way.
        (program,) = lower_workload([self._repeated_workload(2)], ASCEND_MAX)
        reset_engine_stats()
        _assert_traces_identical(program)
        assert engine_stats()["extrapolated_blocks"] == 0

    def test_summary_equals_trace_summary(self):
        (program,) = lower_workload([self._repeated_workload(8)], ASCEND_MAX)
        trace = schedule(program, _COSTS)
        assert schedule_summary([program], _COSTS) == [trace.summary()]


class TestRepeatMetadata:
    def test_concat_records_repeat_regions(self):
        (sub,) = lower_workload(
            [OpWorkload(name="s",
                        gemms=(GemmWork(m=64, k=64, n=64, dtype=FP16),))],
            ASCEND_MAX)
        arena = InstructionArena.concat([sub.arena, sub.arena], [5, 1])
        (start, block, reps), = [r for r in arena.repeats if r[2] == 5]
        assert start == 0
        assert block == sub.arena.n
        assert reps == 5
        assert arena.n == 6 * sub.arena.n

    def test_retagged_shares_columns_and_keeps_repeats(self):
        (program,) = lower_workload(
            [OpWorkload(name="alpha",
                        gemms=(GemmWork(m=64, k=64, n=64, dtype=FP16,
                                        count=4),))],
            ASCEND_MAX)
        arena = program.arena
        other = arena.retagged("beta")
        assert other.kind is arena.kind  # zero-copy column sharing
        assert other.repeats == arena.repeats
        assert other.tags == ["", "beta"]
        assert arena.retagged(arena.tags[-1]) is arena  # no-op fast path
        # Retagging changes labels only — the schedule is identical.
        t1 = schedule(program, _COSTS)
        t2 = schedule(Program.from_arena(other), _COSTS)
        assert np.array_equal(t1.starts, t2.starts)
        assert np.array_equal(t1.ends, t2.ends)


class TestDeadlockStillDetected:
    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_deadlocks_raise_through_arena_path(self, seed, n):
        from repro.errors import DeadlockError

        rng = np.random.default_rng(seed)
        program = _random_flagged_program(rng, n, allow_deadlock=True)
        arena_prog = _arena_program(program.instructions)
        try:
            ref = schedule_fixpoint(program, _COSTS)
        except DeadlockError:
            with pytest.raises(DeadlockError):
                schedule(arena_prog, _COSTS)
        else:
            trace = schedule(arena_prog, _COSTS)
            assert np.array_equal(trace.ends, ref.ends)
