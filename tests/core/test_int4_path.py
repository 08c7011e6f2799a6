"""int4 datapath tests (Section 3.3's automotive low-precision mode)."""

import numpy as np
import pytest

from repro.config import ASCEND
from repro.core import AscendCore, CostModel
from repro.dtypes import INT4, INT8, INT32
from repro.isa import CubeMatmul, MemSpace, Program, Region


@pytest.fixture
def core():
    return AscendCore(ASCEND)  # the int4-capable automotive core


class TestInt4Cube:
    def test_int4_matmul_exact(self, core, rng):
        a = rng.integers(-8, 8, (16, 64)).astype(np.int8)
        b = rng.integers(-8, 8, (64, 16)).astype(np.int8)
        ra = Region(MemSpace.L0A, 0, (16, 64), INT4)
        rb = Region(MemSpace.L0B, 0, (64, 16), INT4)
        rc = Region(MemSpace.L0C, 0, (16, 16), INT32)
        core.memory.write(ra, a)
        core.memory.write(rb, b)
        core.run(Program([CubeMatmul(a=ra, b=rb, c=rc)]), validate=False)
        ref = a.astype(np.int32) @ b.astype(np.int32)
        assert np.array_equal(core.memory.read(rc), ref)

    def test_int4_runs_at_4x_fp16_rate(self):
        costs = CostModel(ASCEND)
        from repro.dtypes import FP16

        c16, = costs.cube_cycle_columns(
            np.array([16]), np.array([256]), np.array([16]), FP16)
        c4, = costs.cube_cycle_columns(
            np.array([16]), np.array([256]), np.array([16]), INT4)
        # 256-deep K: fp16 needs 16 k-tiles, int4 needs 4.
        assert (c16 - 4) == 4 * (c4 - 4)

    def test_int4_halves_storage_vs_int8(self):
        r4 = Region(MemSpace.L0B, 0, (64, 16), INT4)
        r8 = Region(MemSpace.L0B, 0, (64, 16), INT8)
        assert r4.nbytes == r8.nbytes // 2

    def test_int4_peak_doubles_int8(self):
        assert ASCEND.peak_ops(INT4) == 2 * ASCEND.peak_ops(INT8)
