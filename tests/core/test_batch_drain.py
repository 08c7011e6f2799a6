"""A batch drains exactly as its programs drain one at a time.

``schedule_summary`` drains a compile's missed layers as one batch: one
concatenation, one pricing pass, one wait matching over the shared
columns, the recurrence program by program and one segmented summary.
Each program must still behave as if it were alone: its waits pair
within it, its pipes start idle at its first row, its dispatch bound
counts from its own start, its repeat regions extrapolate wherever it
sits, it takes the queue drain when its waits do not all match
backward, and the first program that deadlocks raises what it raises
alone.  These tests compare every batch with its programs drained as
batches of one, on perfbench's compile pool and on random programs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import models
from repro.compiler import cache
from repro.compiler.graph_engine import _im2col_scales
from repro.compiler.lowering import lower_workload
from repro.config import ASCEND_MAX, core_config_by_name
from repro.core.costs import CostModel
from repro.core.engine import (
    engine_stats,
    reset_engine_stats,
    schedule,
    schedule_summary,
)
from repro.dtypes import FP16
from repro.errors import DeadlockError
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.isa import Pipe, Program, ScalarInstr, SetFlag, WaitFlag

from tests.scripts import load_script

from .oracle import schedule_fixpoint
from .test_engine_equivalence import _random_flagged_program

_COSTS = CostModel(ASCEND_MAX)
_POOL = load_script("perfbench/workloads.py").COMPILE_POOL


def _drained(programs, costs):
    """(summaries, engine_stats delta) of one batch."""
    reset_engine_stats()
    summaries = schedule_summary(programs, costs)
    return summaries, engine_stats()


def _one_at_a_time(programs, costs):
    """(summaries, engine_stats delta) of each program drained alone."""
    reset_engine_stats()
    summaries = [summary for program in programs
                 for summary in schedule_summary([program], costs)]
    return summaries, engine_stats()


def _assert_batch_equals_singles(programs, costs):
    batch = _drained(programs, costs)
    assert batch == _one_at_a_time(programs, costs)
    return batch


def _misses(model, core):
    """The programs a cold compile of ``model`` on ``core`` drains: one
    per distinct layer, with its im2col scale, in pair order."""
    graph = models.build_model(model)
    config = core_config_by_name(core)
    scales = _im2col_scales(graph)
    works = {}
    for group, work in graph.grouped_workloads():
        scale = scales.get(group, 1.0)
        works.setdefault(cache.content_key(config, work, scale),
                         (work, scale))
    misses = list(works.values())
    return (lower_workload([work for work, _ in misses], config,
                           [scale for _, scale in misses]),
            CostModel(config))


def _repeated_gemm(count):
    return OpWorkload(name="stack", gemms=(
        GemmWork(m=128, k=128, n=128, dtype=FP16, count=count),))


class TestCompilePool:
    @pytest.mark.parametrize("model,core", _POOL,
                             ids=[f"{m}@{c}" for m, c in _POOL])
    def test_batch_equals_programs_alone(self, model, core):
        programs, costs = _misses(model, core)
        assert len(programs) > 1
        summaries, stats = _assert_batch_equals_singles(programs, costs)
        assert stats["flat_drains"] == len(programs)
        assert [s.total_cycles for s in summaries] \
            == [schedule(p, costs).total_cycles for p in programs]


class TestRandomBatches:
    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.lists(st.integers(0, 40), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_programs_alone(self, seed, sizes):
        rng = np.random.default_rng(seed)
        programs = [_random_flagged_program(rng, n, allow_deadlock=False)
                    if n else Program([]) for n in sizes]
        summaries, _ = _assert_batch_equals_singles(programs, _COSTS)
        assert summaries == [schedule(p, _COSTS).summary()
                             for p in programs]


class TestPerProgramPaths:
    def test_repeat_region_extrapolates_after_the_first_program(self):
        # Over two thousand rows ahead of a short block: its dispatch
        # margin holds only if the bound counts from its own first row.
        lead, stack = lower_workload([
            OpWorkload(name="lead", gemms=(
                GemmWork(m=512, k=512, n=512, dtype=FP16),),
                vector=(VectorWork(elems=3000),)),
            OpWorkload(name="stack", gemms=(
                GemmWork(m=32, k=32, n=32, dtype=FP16, count=8),))],
            ASCEND_MAX)
        assert stack.arena.repeats
        summaries, stats = _assert_batch_equals_singles(
            [lead, stack, lead], _COSTS)
        assert stats["extrapolated_blocks"] > 0
        assert summaries[1] == schedule_fixpoint(stack, _COSTS).summary()

    def test_forward_match_takes_the_queue_drain_inside_a_batch(self):
        forward = Program([
            ScalarInstr(op="nop", cycles=3),
            WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=0),
            ScalarInstr(op="nop", cycles=2),
            SetFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=0),
        ])
        (flat,) = lower_workload([_repeated_gemm(1)], ASCEND_MAX)
        summaries, stats = _assert_batch_equals_singles(
            [flat, forward, flat], _COSTS)
        assert (stats["flat_drains"], stats["general_drains"]) == (2, 1)
        assert summaries[1] == schedule_fixpoint(forward, _COSTS).summary()

    def test_channels_beyond_sixteen_bits(self):
        """Event ids whose packed channel overflows 16 bits pair alike."""
        far = Program([
            SetFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=5000),
            ScalarInstr(op="nop", cycles=4),
            WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=5000),
            SetFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=1),
            WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=1),
        ])
        (flat,) = lower_workload([_repeated_gemm(1)], ASCEND_MAX)
        summaries, _ = _assert_batch_equals_singles([flat, far], _COSTS)
        assert summaries[1] == schedule_fixpoint(far, _COSTS).summary()

    def test_waits_pair_within_their_program(self):
        """A set in one program never satisfies a wait in the next."""
        sets = Program([SetFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V,
                                event_id=0)])
        waits = Program([WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V,
                                  event_id=0)])
        with pytest.raises(DeadlockError):
            schedule_summary([sets, waits], _COSTS)


def _deadlocking(rng):
    """A random program that deadlocks alone."""
    while True:
        program = _random_flagged_program(rng, int(rng.integers(1, 40)),
                                          allow_deadlock=True)
        try:
            schedule_summary([program], _COSTS)
        except DeadlockError:
            return program


class TestDeadlockInABatch:
    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_first_deadlock_raises_as_alone(self, seed, before, after):
        rng = np.random.default_rng(seed)
        clean = [_random_flagged_program(rng, int(rng.integers(1, 30)),
                                         allow_deadlock=False)
                 for _ in range(before + after)]
        stuck = _deadlocking(rng)
        programs = clean[:before] + [stuck] + clean[before:]
        reset_engine_stats()
        with pytest.raises(DeadlockError) as alone:
            for program in programs[:before + 1]:
                schedule_summary([program], _COSTS)
        alone_stats = engine_stats()
        reset_engine_stats()
        with pytest.raises(DeadlockError) as batch:
            schedule_summary(programs, _COSTS)
        assert str(batch.value) == str(alone.value)
        assert batch.value.report == alone.value.report
        assert engine_stats() == alone_stats
