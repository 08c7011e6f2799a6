"""InstructionArena: columns, lazy view, concat, validation."""

import numpy as np
import pytest

from repro.compiler import lower_gemm, lower_vector_work
from repro.config import ASCEND_MAX
from repro.core import CostModel
from repro.errors import IsaError
from repro.dtypes import FP16, FP32
from repro.graph.workload import VectorWork
from repro.isa import MemSpace, Pipe, Region
from repro.isa.arena import DTYPE_ID, DTYPE_TABLE, InstructionArena
from repro.isa.channels import pack_channel
from repro.isa.instructions import (
    CopyInstr,
    CubeMatmul,
    ScalarInstr,
    SetFlag,
    VectorInstr,
    VectorOpcode,
    WaitFlag,
)
from repro.isa.program import Program

from tests.core import cost_oracle


def _gemm_program(**kw):
    return lower_gemm(96, 160, 64, ASCEND_MAX, **kw)


def _sample_instrs():
    a = Region(MemSpace.L0A, 0, (16, 16), FP16)
    b = Region(MemSpace.L0B, 0, (16, 16), FP16)
    c = Region(MemSpace.L0C, 0, (16, 16), FP32)
    ub = Region(MemSpace.UB, 64, (256,), FP16)
    return [
        SetFlag(src_pipe=Pipe.MTE2, dst_pipe=Pipe.MTE1, event_id=0, tag="t"),
        WaitFlag(src_pipe=Pipe.MTE2, dst_pipe=Pipe.MTE1, event_id=0, tag="t"),
        CopyInstr(dst=Region(MemSpace.L1, 0, (16, 16), FP16),
                  src=Region(MemSpace.GM, 128, (16, 16), FP16)),
        CubeMatmul(a=a, b=b, c=c, accumulate=True),
        VectorInstr(op=VectorOpcode.MULS, dst=ub, srcs=(ub,), scalar=2.5),
    ]


class TestColumns:
    def test_empty_slots_and_defaults(self):
        arena = InstructionArena(3)
        assert (arena.r_space == -1).all()
        assert (arena.event == -1).all()
        assert np.isnan(arena.scalar).all()
        assert arena.exact

    def test_from_instructions_round_trip(self):
        instrs = _sample_instrs()
        arena = InstructionArena.from_instructions(instrs)
        # The source instructions are retained as the materialized view
        # (no column -> object rebuild).
        assert arena.materialize() == instrs
        assert arena.materialize()[0] is instrs[0]
        assert arena.kind.shape == (5,)
        assert int(arena.accumulate[3]) == 1
        assert arena.scalar[4] == 2.5

    def test_materialize_rebuilds_value_identical_rows(self):
        prog = _gemm_program()
        arena = prog._arena
        assert arena is not None and arena.exact
        # Built from columns alone: no retained objects to hand back.
        rebuilt = InstructionArena.concat([arena])
        assert rebuilt._objects is None
        objects = rebuilt.materialize()
        assert objects == arena.materialize()
        # Columns -> objects -> columns is the identity.
        again = InstructionArena.from_instructions(objects)
        for name in ("kind", "pipe", "flag_src", "flag_dst", "event", "vop",
                     "scalar", "accumulate", "misc", "r_space", "r_offset",
                     "r_d0", "r_d1", "r_pitch", "r_dtype"):
            assert np.array_equal(getattr(again, name), getattr(arena, name),
                                  equal_nan=name == "scalar"), name
        assert ([again.tags[t] for t in again.tag_id.tolist()]
                == [arena.tags[t] for t in arena.tag_id.tolist()])

    def test_nbytes_and_elems_match_objects(self):
        prog = _gemm_program()
        arena = prog._arena
        nb = arena.nbytes
        el = arena.elems
        for i, instr in enumerate(prog.instructions):
            if isinstance(instr, CubeMatmul):
                assert el[i, 1] == instr.a.elems
                assert nb[i, 0] == instr.c.nbytes
            elif isinstance(instr, CopyInstr):
                assert nb[i, 1] == instr.src.nbytes
                assert nb[i, 0] == instr.dst.nbytes

    def test_region_ends_include_pitch_gaps(self):
        pitched = Region(MemSpace.GM, 64, (4, 8), FP16, pitch=100)
        arena = InstructionArena.from_instructions(
            [CopyInstr(dst=Region(MemSpace.L1, 0, (4, 8), FP16), src=pitched)])
        ends = arena.region_ends()
        assert ends[0, 1] == pitched.end
        assert ends[0, 0] == 64  # dst offset 0 + 4*8*2 bytes... checked below
        assert ends[0, 0] == Region(MemSpace.L1, 0, (4, 8), FP16).end

    def test_packed_channels(self):
        instrs = _sample_instrs()
        arena = InstructionArena.from_instructions(instrs)
        packed = arena.packed_channels()
        expect = pack_channel(Pipe.MTE2, Pipe.MTE1, 0)
        assert packed[0] == expect and packed[1] == expect
        assert (packed[2:] == -1).all()


class TestExactness:
    def test_scalar_op_marks_inexact(self):
        arena = InstructionArena.from_instructions(
            [ScalarInstr(op="loop", cycles=7)])
        assert not arena.exact
        # The retained objects materialize...
        assert arena.materialize()[0].cycles == 7
        # ...but the columns alone cannot rebuild the row.
        arena._objects = None
        with pytest.raises(IsaError):
            arena.materialize()

    def test_cost_columns_still_prices_inexact_rows(self):
        arena = InstructionArena.from_instructions(
            [ScalarInstr(op="loop", cycles=7)] + _sample_instrs())
        costs = CostModel(ASCEND_MAX)
        cols = costs.cost_columns(arena)
        assert cols.tolist() == [cost_oracle.cost(costs, i)
                                 for i in arena.materialize()]


class TestConcat:
    def test_concat_with_repeats_matches_object_concat(self):
        pa = _gemm_program()
        pv = lower_vector_work(VectorWork(elems=5000), ASCEND_MAX)
        arena = InstructionArena.concat([pa._arena, pv._arena], [2, 3])
        expect = (pa.instructions * 2) + (pv.instructions * 3)
        assert arena.materialize() == expect

    def test_concat_remaps_tags(self):
        a1 = InstructionArena.from_instructions(_sample_instrs())
        a2 = InstructionArena.from_instructions(_sample_instrs())
        out = InstructionArena.concat([a1, a2])
        tags = [out.tags[t] for t in out.tag_id.tolist()]
        assert tags == [i.tag for i in a1.materialize() + a2.materialize()]

    def test_empty_concat(self):
        out = InstructionArena.concat([])
        assert out.n == 0 and len(out.kind) == 0


class TestColumnarValidation:
    def test_lowered_program_validates(self):
        prog = _gemm_program()
        prog.validate(ASCEND_MAX)  # must not raise

    def test_unbalanced_wait_rejected(self):
        instrs = [WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=4)]
        prog = Program.from_arena(InstructionArena.from_instructions(instrs))
        with pytest.raises(IsaError):
            prog.validate()

    def test_out_of_bounds_region_rejected(self):
        huge = Region(MemSpace.L0A, 0, (4096, 4096), FP16)
        instrs = [CopyInstr(dst=huge, src=Region(MemSpace.L1, 0, (4096, 4096), FP16))]
        prog = Program.from_arena(InstructionArena.from_instructions(instrs))
        with pytest.raises(IsaError):
            prog.validate(ASCEND_MAX)

    def test_columnar_and_object_validation_agree(self):
        instrs = [WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=4)]
        arena = InstructionArena.from_instructions(instrs)
        columnar = Program.from_arena(arena)
        with pytest.raises(IsaError):
            columnar.validate()
        arena.exact = False  # force the per-object walk
        with pytest.raises(IsaError):
            Program.from_arena(arena).validate()


class TestDtypeTable:
    def test_ids_are_stable_and_total(self):
        for i, dt in enumerate(DTYPE_TABLE):
            assert DTYPE_ID[dt.name] == i
