"""Program container validation tests."""

import pytest

from repro.compiler import CceAssembler
from repro.config import ASCEND, ASCEND_LITE, ASCEND_MAX, ASCEND_TINY
from repro.dtypes import FP16, FP32
from repro.errors import IsaError
from repro.isa import (
    CopyInstr,
    CubeMatmul,
    MemSpace,
    Pipe,
    Program,
    Region,
    SetFlag,
    WaitFlag,
)


def _mm(tag=""):
    return CubeMatmul(
        a=Region(MemSpace.L0A, 0, (16, 16), FP16),
        b=Region(MemSpace.L0B, 0, (16, 16), FP16),
        c=Region(MemSpace.L0C, 0, (16, 16), FP32),
        tag=tag,
    )


class TestProgram:
    def test_append_and_iterate(self):
        p = Program()
        p.append(_mm())
        assert len(p) == 1
        assert p[0].pipe is Pipe.M

    def test_append_non_instruction_rejected(self):
        with pytest.raises(IsaError):
            Program().append("copy")  # type: ignore[arg-type]

    def test_by_pipe_partition(self):
        p = Program([
            _mm(),
            SetFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=0),
            WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=0),
        ])
        queues = p.by_pipe()
        assert len(queues[Pipe.M]) == 2  # matmul + set
        assert len(queues[Pipe.V]) == 1  # wait

    def test_total_macs(self):
        p = Program([_mm(), _mm()])
        assert p.total_macs() == 2 * 16 ** 3


class TestValidation:
    def test_balanced_flags_pass(self):
        p = Program([
            SetFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=1),
            WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=1),
        ])
        p.validate()

    def test_unbalanced_wait_rejected(self):
        p = Program([WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=1)])
        with pytest.raises(IsaError, match="unbalanced"):
            p.validate()

    def test_unbalanced_set_rejected(self):
        p = Program([SetFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=1)])
        with pytest.raises(IsaError, match="unbalanced"):
            p.validate()

    def test_capacity_check_against_config(self):
        # 16x16 fp16 fits everywhere on Ascend-Max...
        Program([_mm()]).validate(ASCEND_MAX)
        # ...but a giant L0A region overruns Tiny's 16 KB L0A.
        big = CubeMatmul(
            a=Region(MemSpace.L0A, 0, (256, 64), FP16),
            b=Region(MemSpace.L0B, 0, (64, 16), FP16),
            c=Region(MemSpace.L0C, 0, (256, 16), FP32),
        )
        with pytest.raises(IsaError, match="overruns"):
            Program([big]).validate(ASCEND_TINY)

    def test_gm_regions_unbounded(self):
        huge = CopyInstr(
            dst=Region(MemSpace.L1, 0, (16,), FP16),
            src=Region(MemSpace.GM, 10 ** 9, (16,), FP16),
        )
        Program([huge]).validate(ASCEND_MAX)


class TestInexactProgramValidation:
    """Programs the arena cannot describe column for column (an img2col
    with its 3-D source, here written as CCE text) validate through the
    per-object walk."""

    # 16x16x3 fp16 image, 3x3 kernel, no padding: a 196 x 27 A-tile
    # (10,584 B) at an L0A offset that fits a 64 KB L0A but not 32 KB.
    TEXT = ("img2col L0A@24576:196x27:fp16 L1@0:16x16x3:fp16 "
            "k=3x3 s=1x1 p=0x0\n"
            "scalar nop 2\n")

    def _program(self):
        asm = CceAssembler()
        program = asm.assemble(self.TEXT, name="img2col")
        assert asm.assemble(asm.disassemble(program), name="img2col") \
            == program
        assert not program.arena.exact
        return program

    def test_fits_where_l0a_is_large_enough(self):
        self._program().validate(ASCEND)

    def test_overrun_names_index_class_and_space(self):
        with pytest.raises(IsaError, match=r"instruction #0 \(Img2ColInstr\)"
                                           r" overruns L0A: needs "
                                           r"\[24576, 35160\)"):
            self._program().validate(ASCEND_LITE)
