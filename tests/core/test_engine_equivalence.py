"""The engine drain must be bit-identical to the fixpoint oracle.

Both drain the same in-order per-pipe queues over
single-producer/single-consumer flag channels, so start/end times are
independent of visit order — these tests pin that equivalence on
randomized multi-pipe programs drawing every ISA class the frontends
emit (including the DeadlockError path) and on the real compiled corpus.
The oracle prices each instruction object with ``CostModel.cost`` while
the drain prices the arena's columns, so agreement also pins the two
pricings equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.lowering import lower_workload
from repro.config import ASCEND, ASCEND_LITE, ASCEND_MAX
from repro.core.costs import CostModel
from repro.core.engine import schedule, schedule_summary
from repro.dtypes import FP16, FP32, INT4, INT8, accumulator_for
from repro.errors import DeadlockError
from repro.isa import (
    CopyInstr,
    CubeMatmul,
    DecompressInstr,
    Img2ColInstr,
    MemSpace,
    Pipe,
    PipeBarrier,
    Program,
    Region,
    ScalarInstr,
    SetFlag,
    TransposeInstr,
    VectorInstr,
    VectorOpcode,
    WaitFlag,
)
from repro.isa.instructions import COPY_ROUTES
from repro.models import build_model

from . import cost_oracle
from .oracle import schedule_fixpoint

_COSTS = CostModel(ASCEND_MAX)

_PIPES = [Pipe.M, Pipe.V, Pipe.MTE1, Pipe.MTE2, Pipe.MTE3, Pipe.S]

_ROUTES = sorted(COPY_ROUTES)

# Vector opcodes the draws pick from: elementwise, transcendental
# (multi-pass), scalar-immediate, reduction, the 3-source select, and the
# COPY/CAST pair that rides the UB port when an operand is in L0C.
_VECTOR_OPS = (
    VectorOpcode.ADD, VectorOpcode.EXP, VectorOpcode.ADDS,
    VectorOpcode.REDUCE_SUM, VectorOpcode.SELECT_GE, VectorOpcode.COPY,
    VectorOpcode.CAST,
)


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(0, len(options)))]


def _vector(rng: np.random.Generator) -> VectorInstr:
    op = _pick(rng, _VECTOR_OPS)
    elems = int(rng.integers(1, 513))
    dtype = _pick(rng, (FP16, FP32))
    spaces = [_pick(rng, (MemSpace.UB, MemSpace.L0C))
              for _ in range(op.arity + 1)]
    srcs = tuple(Region(space, 0, (elems,), dtype) for space in spaces[1:])
    dst_shape = (1,) if op.is_reduction else (elems,)
    dst_dtype = FP16 if op is VectorOpcode.CAST else dtype
    scalar = 1.5 if op is VectorOpcode.ADDS else None
    return VectorInstr(op=op, dst=Region(spaces[0], 0, dst_shape, dst_dtype),
                       srcs=srcs, scalar=scalar)


def _payload(rng: np.random.Generator):
    """One payload instruction of any class the TIK/TBE/CCE frontends
    emit, with randomized shapes, dtypes and routes."""
    kind = rng.integers(0, 8)
    if kind == 0:
        m, k, n = (int(d) for d in rng.integers(1, 65, 3))
        dtype = _pick(rng, (FP16, INT8))
        return CubeMatmul(
            a=Region(MemSpace.L0A, 0, (m, k), dtype),
            b=Region(MemSpace.L0B, 0, (k, n), dtype),
            c=Region(MemSpace.L0C, 0, (m, n), accumulator_for(dtype)),
            accumulate=bool(rng.integers(0, 2)),
        )
    if kind == 1:
        src, dst = _pick(rng, _ROUTES)
        rows, cols = (int(d) for d in rng.integers(1, 49, 2))
        if rng.random() < 0.5:  # a pitched tile of a larger matrix
            pitch = 2 * cols + 2 * int(rng.integers(0, 8))
            return CopyInstr(dst=Region(dst, 0, (rows, cols), FP16),
                             src=Region(src, 0, (rows, cols), FP16,
                                        pitch=pitch))
        dtype = _pick(rng, (FP16, INT8, INT4, FP32))
        return CopyInstr(dst=Region(dst, 0, (rows * cols,), dtype),
                         src=Region(src, 0, (rows * cols,), dtype))
    if kind == 2:
        return ScalarInstr(op="nop", cycles=int(rng.integers(1, 5)))
    if kind == 3:
        h, w = (int(d) for d in rng.integers(3, 9, 2))
        c = int(rng.integers(1, 17))
        kh, kw = (int(d) for d in rng.integers(1, 4, 2))
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        oh = (h - kh) // stride[0] + 1
        ow = (w - kw) // stride[1] + 1
        return Img2ColInstr(
            dst=Region(MemSpace.L0A, 0, (oh * ow, kh * kw * c), FP16),
            src=Region(MemSpace.L1, 0, (h, w, c), FP16),
            kernel=(kh, kw), stride=stride)
    dst_space = _pick(rng, (MemSpace.L0A, MemSpace.L0B))
    rows, cols = (int(d) for d in rng.integers(1, 65, 2))
    if kind == 4:
        return TransposeInstr(dst=Region(dst_space, 0, (cols, rows), FP16),
                              src=Region(MemSpace.L1, 0, (rows, cols), FP16))
    if kind == 5:
        packed = int(rng.integers(1, 2 * rows * cols + 1))
        return DecompressInstr(dst=Region(dst_space, 0, (rows, cols), FP16),
                               src=Region(MemSpace.L1, 0, (packed,), INT8))
    if kind == 6:
        return _vector(rng)
    return PipeBarrier(barrier_pipe=_pick(rng, _PIPES))


def _random_flagged_program(rng: np.random.Generator, n: int,
                            allow_deadlock: bool) -> Program:
    """Multi-pipe payload with set/wait chains.

    Sets are emitted eagerly and their waits deferred a random distance,
    producing cross-pipe chains rather than adjacent pairs.  With
    ``allow_deadlock`` the program may contain a wait whose producer
    never signals.
    """
    instrs = []
    deferred = []  # pending WaitFlags not yet emitted
    for _ in range(n):
        instrs.append(_payload(rng))
        roll = rng.random()
        if roll < 0.35:
            src, dst = rng.choice(len(_PIPES), size=2, replace=False)
            flag = SetFlag(src_pipe=_PIPES[src], dst_pipe=_PIPES[dst],
                           event_id=int(rng.integers(0, 4)))
            instrs.append(flag)
            deferred.append(WaitFlag(src_pipe=flag.src_pipe,
                                     dst_pipe=flag.dst_pipe,
                                     event_id=flag.event_id))
        elif roll < 0.6 and deferred:
            instrs.append(deferred.pop(int(rng.integers(0, len(deferred)))))
    instrs.extend(deferred)  # close every chain
    if allow_deadlock and rng.random() < 0.5:
        src, dst = rng.choice(len(_PIPES), size=2, replace=False)
        # A wait nobody will ever signal.
        instrs.insert(
            int(rng.integers(0, len(instrs) + 1)),
            WaitFlag(src_pipe=_PIPES[src], dst_pipe=_PIPES[dst], event_id=7),
        )
    return Program(instrs)


class TestSchedulerEquivalence:
    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_traces_bit_identical(self, seed, n):
        rng = np.random.default_rng(seed)
        program = _random_flagged_program(rng, n, allow_deadlock=False)
        fast = schedule(program, _COSTS)
        oracle = schedule_fixpoint(program, _COSTS)
        assert fast.events == oracle.events

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_deadlock_agreement(self, seed, n):
        """The drain and the oracle agree on *whether* a program
        deadlocks, and on the surviving trace when it does not."""
        rng = np.random.default_rng(seed)
        program = _random_flagged_program(rng, n, allow_deadlock=True)
        try:
            oracle = schedule_fixpoint(program, _COSTS)
        except DeadlockError:
            with pytest.raises(DeadlockError):
                schedule(program, _COSTS)
        else:
            assert schedule(program, _COSTS).events == oracle.events

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_summary_matches_trace(self, seed, n):
        rng = np.random.default_rng(seed)
        program = _random_flagged_program(rng, n, allow_deadlock=False)
        assert schedule_summary([program], _COSTS) \
            == [schedule(program, _COSTS).summary()]

    @pytest.mark.parametrize("config", [ASCEND_MAX, ASCEND_LITE],
                             ids=lambda c: c.name)
    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           n=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_cost_columns_match_object_costs(self, config, seed, n):
        """The drain's vectorized pricing equals per-object pricing for
        every row, inexact ones (scalar, img2col, 3-source select)
        included."""
        rng = np.random.default_rng(seed)
        program = _random_flagged_program(rng, n, allow_deadlock=False)
        costs = CostModel(config)
        assert costs.cost_columns(program.arena).tolist() \
            == [cost_oracle.cost(costs, i) for i in program]


class TestCompiledCorpusEquivalence:
    def test_resnet50_corpus_bit_identical(self):
        """Every compiled ResNet-50 layer program schedules identically
        under the drain and the oracle, and the one-pass summary agrees
        with the trace's own aggregates."""
        graph = build_model("resnet50", batch=1)
        costs = CostModel(ASCEND)
        for _, work in graph.grouped_workloads():
            (program,) = lower_workload([work], ASCEND)
            fast = schedule(program, costs)
            oracle = schedule_fixpoint(program, costs)
            assert fast.events == oracle.events
            (summary,) = schedule_summary([program], costs)
            assert summary.total_cycles == oracle.total_cycles
            for pipe in Pipe:
                assert summary.busy_cycles(pipe) == oracle.busy_cycles(pipe)
            traffic = oracle.summary()
            assert (summary.l1_read_bytes, summary.l1_write_bytes) \
                == (traffic.l1_read_bytes, traffic.l1_write_bytes)
            assert (summary.gm_read_bytes, summary.gm_write_bytes) \
                == (traffic.gm_read_bytes, traffic.gm_write_bytes)
