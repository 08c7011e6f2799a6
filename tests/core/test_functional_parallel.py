"""Functional replay of a lowered int8 GEMM against its numpy reference.

``AscendCore.run`` replays a program's tile ops one at a time in causal
(start-time) order.  The fp16, fp32 and int4 references live beside the
lowering, next-gen and int4-path suites; this one pins the int8 tiles
with an int32 result written back to GM, which no other suite checks.
"""

import numpy as np
import pytest

from repro.compiler import lower_gemm
from repro.compiler.lowering import GemmLayout
from repro.config import ASCEND_MAX
from repro.core import AscendCore
from repro.dtypes import INT8, INT32
from repro.isa import MemSpace, Region

_GM_BYTES = 4 * 1024 * 1024  # plenty for the test GEMM, cheap to compare
_LAYOUT = GemmLayout(0, 2 ** 19, 2 ** 20)


def _full_state(core):
    """Every scratchpad's raw bytes — the strongest equality witness."""
    return {space: pad._data.copy() for space, pad in core.memory.spaces.items()}


class TestGemmDtypeMatrix:
    @pytest.mark.parametrize("replays", [2, 4])
    def test_int8(self, rng, replays):
        """The same ``Program`` replayed on ``replays`` fresh cores: the
        first run builds its cached arena, the rest reuse it, and every
        run leaves byte-identical state holding the numpy product."""
        m, k, n = 64, 48, 32
        a = rng.integers(-16, 16, (m, k)).astype(np.int8)
        b = rng.integers(-16, 16, (k, n)).astype(np.int8)
        program = lower_gemm(m, k, n, ASCEND_MAX, dtype=INT8,
                             out_dtype=INT32, layout=_LAYOUT)
        cores = []
        for _ in range(replays):
            core = AscendCore(ASCEND_MAX, gm_bytes=_GM_BYTES)
            core.memory.write(Region(MemSpace.GM, 0, (m, k), INT8), a)
            core.memory.write(Region(MemSpace.GM, 2 ** 19, (k, n), INT8), b)
            core.run(program)
            cores.append(core)
        first = _full_state(cores[0])
        for i, core in enumerate(cores[1:], start=1):
            for space, expected in first.items():
                assert np.array_equal(_full_state(core)[space], expected), \
                    f"{space.name} diverged on replay {i}"
        out = cores[0].memory.read(Region(MemSpace.GM, 2 ** 20, (m, n), INT32))
        assert np.array_equal(out, a.astype(np.int32) @ b.astype(np.int32))
