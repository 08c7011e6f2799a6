"""Cycle-cost model tests against the Table 5 throughput anchors.

Each hand-computed price pins the production columns (``cost_columns``
on a one-row program, ``cube_cycle_columns``) and the scalar oracle in
``tests/core/cost_oracle.py`` alike.
"""

import numpy as np
import pytest

from repro.config import ASCEND_LITE, ASCEND_MAX, ASCEND_TINY
from repro.core import CostModel
from repro.dtypes import FP16, FP32, INT4, INT8, INT32
from repro.errors import IsaError
from repro.isa import (
    CopyInstr,
    CubeMatmul,
    MemSpace,
    Region,
    SetFlag,
    Pipe,
    Program,
    VectorInstr,
    VectorOpcode,
)
from repro.core.costs import _CUBE_STARTUP, _VEC_STARTUP

from tests.core import cost_oracle


def _cube(costs, m, k, n, dtype):
    """One tile's price by the production columns, checked against the
    scalar oracle."""
    (cycles,) = costs.cube_cycle_columns(
        np.array([m]), np.array([k]), np.array([n]), dtype).tolist()
    assert cycles == cost_oracle.cube_cycles(costs, m, k, n, dtype)
    return cycles


def _price(costs, instr):
    """One instruction's price by ``cost_columns`` on a one-row program,
    checked against the scalar oracle."""
    (cycles,) = costs.cost_columns(Program([instr]).arena).tolist()
    assert cycles == cost_oracle.cost(costs, instr)
    return cycles


class TestCubeCosts:
    def test_native_tile_is_one_cycle(self):
        costs = CostModel(ASCEND_MAX)
        assert _cube(costs, 16, 16, 16, FP16) == _CUBE_STARTUP + 1

    def test_tiles_multiply(self):
        costs = CostModel(ASCEND_MAX)
        assert _cube(costs, 32, 32, 32, FP16) == _CUBE_STARTUP + 8

    def test_partial_tiles_round_up(self):
        costs = CostModel(ASCEND_MAX)
        # 17 in every dim -> 2 tiles per dim.
        assert _cube(costs, 17, 17, 17, FP16) == _CUBE_STARTUP + 8

    def test_int8_doubles_k_dim(self):
        costs = CostModel(ASCEND_MAX)
        assert costs.cube_tile_shape(INT8) == (16, 32, 16)

    def test_int4_quadruples_k_dim(self):
        from repro.config import ASCEND

        costs = CostModel(ASCEND)
        assert costs.cube_tile_shape(INT4) == (16, 64, 16)

    def test_tiny_native_int8(self):
        costs = CostModel(ASCEND_TINY)
        assert costs.cube_tile_shape(INT8) == (4, 32, 4)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(IsaError):
            CostModel(ASCEND_TINY).cube_tile_shape(FP16)


class TestVectorCosts:
    def test_width_bound(self):
        costs = CostModel(ASCEND_MAX)
        # 256 fp16 elements = 512 B = 2 passes of the 256 B datapath.
        assert costs.vector_cycles(256, 2) == _VEC_STARTUP + 2

    def test_passes_multiply(self):
        costs = CostModel(ASCEND_MAX)
        assert costs.vector_cycles(128, 2, passes=4) == _VEC_STARTUP + 4

    def test_narrow_tiny_vector(self):
        costs = CostModel(ASCEND_TINY)
        assert costs.vector_cycles(64, 1) == _VEC_STARTUP + 2  # 32 B wide


class TestInstructionDispatch:
    def test_cube_instr_cost(self):
        costs = CostModel(ASCEND_MAX)
        mm = CubeMatmul(
            a=Region(MemSpace.L0A, 0, (32, 16), FP16),
            b=Region(MemSpace.L0B, 0, (16, 16), FP16),
            c=Region(MemSpace.L0C, 0, (32, 16), FP32),
        )
        assert _price(costs, mm) == _CUBE_STARTUP + 2

    def test_l0c_move_uses_ub_port(self):
        costs = CostModel(ASCEND_MAX)
        src = Region(MemSpace.L0C, 0, (64, 64), FP32)  # 16 KB
        dst = Region(MemSpace.UB, 0, (64, 64), FP16)
        move = VectorInstr(op=VectorOpcode.CAST, dst=dst, srcs=(src,))
        # 16384 B over the 2000 B/cycle UB port, not the 256 B ALU.
        assert _price(costs, move) == _VEC_STARTUP + 9

    def test_vector_alu_op_uses_datapath_width(self):
        costs = CostModel(ASCEND_MAX)
        buf = Region(MemSpace.UB, 0, (64, 64), FP16)
        relu = VectorInstr(op=VectorOpcode.RELU, dst=buf, srcs=(buf,))
        assert _price(costs, relu) == _VEC_STARTUP + 32  # 8 KB / 256 B

    def test_copy_cost_from_route(self):
        costs = CostModel(ASCEND_MAX)
        copy = CopyInstr(
            dst=Region(MemSpace.L0A, 0, (64, 64), FP16),
            src=Region(MemSpace.L1, 0, (64, 64), FP16),
        )
        assert _price(costs, copy) == 8 + 3  # overhead + ceil(8192/4000)

    def test_flag_cost_is_one(self):
        costs = CostModel(ASCEND_MAX)
        assert _price(costs, SetFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V,
                                     event_id=0)) == 1
