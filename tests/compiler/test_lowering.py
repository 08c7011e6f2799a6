"""Lowering tests: the pipelined GEMM generator and vector streaming."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import lower_gemm, lower_vector_work, lower_workload
from repro.compiler.lowering import GemmLayout, PostOp
from repro.config import ASCEND_MAX, ASCEND_TINY
from repro.core import AscendCore, CostModel
from repro.core.engine import schedule
from repro.dtypes import FP16, INT8
from repro.errors import CompileError
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.isa import CubeMatmul, MemSpace, Pipe, Region, VectorOpcode


def _run_gemm(m, k, n, rng, post_ops=(), bias=False):
    core = AscendCore(ASCEND_MAX)
    a = (rng.standard_normal((m, k)) * 0.3).astype(np.float16)
    b = (rng.standard_normal((k, n)) * 0.3).astype(np.float16)
    a_off, b_off = 0, 4 * 1024 * 1024
    c_off, bias_off = 8 * 1024 * 1024, 12 * 1024 * 1024
    layout = GemmLayout(a_off, b_off, c_off,
                        bias_offset=bias_off if bias else None)
    prog = lower_gemm(m, k, n, ASCEND_MAX, layout=layout, post_ops=post_ops)
    core.memory.write(Region(MemSpace.GM, a_off, (m, k), FP16), a)
    core.memory.write(Region(MemSpace.GM, b_off, (k, n), FP16), b)
    bias_vec = None
    if bias:
        bias_vec = rng.standard_normal(n).astype(np.float16)
        core.memory.write(Region(MemSpace.GM, bias_off, (1, n), FP16),
                          bias_vec.reshape(1, n))
    result = core.run(prog)
    out = core.memory.read(Region(MemSpace.GM, c_off, (m, n), FP16))
    ref = a.astype(np.float32) @ b.astype(np.float32)
    if bias:
        ref = ref + bias_vec.astype(np.float32)
    return out.astype(np.float32), ref, result


class TestFunctionalGemm:
    def test_single_tile(self, rng):
        out, ref, _ = _run_gemm(16, 16, 16, rng)
        assert np.allclose(out, ref, atol=1e-2)

    def test_multi_tile_all_dims(self, rng):
        out, ref, _ = _run_gemm(200, 300, 90, rng)
        assert np.allclose(out, ref, atol=2e-2, rtol=2e-2)

    def test_k_accumulation_over_stages(self, rng):
        out, ref, _ = _run_gemm(64, 2000, 32, rng)
        assert np.allclose(out, ref, atol=0.1, rtol=2e-2)

    def test_bias_and_relu_epilogue(self, rng):
        out, ref, _ = _run_gemm(60, 70, 40, rng,
                                post_ops=[PostOp(VectorOpcode.RELU)],
                                bias=True)
        assert np.allclose(out, np.maximum(ref, 0), atol=2e-2, rtol=2e-2)

    @given(st.integers(1, 150), st.integers(1, 150), st.integers(1, 100))
    @settings(max_examples=10, deadline=None)
    def test_arbitrary_shapes_match_numpy(self, m, k, n):
        rng = np.random.default_rng(m * 10007 + k * 101 + n)
        out, ref, _ = _run_gemm(m, k, n, rng)
        assert np.allclose(out, ref, atol=5e-2, rtol=5e-2)


class TestProgramStructure:
    def test_flags_balanced(self):
        prog = lower_gemm(256, 256, 256, ASCEND_MAX, tag="t")
        prog.validate(ASCEND_MAX)  # raises on unbalanced flags / overruns

    def test_pipeline_overlaps(self):
        """Double buffering must overlap MTE and cube work: total cycles
        well below the serialized sum of pipe busy times."""
        prog = lower_gemm(1024, 1024, 1024, ASCEND_MAX, tag="t")
        trace = schedule(prog, CostModel(ASCEND_MAX))
        serial = sum(trace.busy_cycles(p) for p in Pipe)
        assert trace.total_cycles < 0.7 * serial

    def test_cube_instruction_count(self):
        prog = lower_gemm(256, 256, 256, ASCEND_MAX, tag="t")
        tiling = __import__("repro.compiler.tiling",
                            fromlist=["choose_tiling"]).choose_tiling(
            256, 256, 256, ASCEND_MAX)
        import math

        expected = (math.ceil(256 / tiling.tm) * math.ceil(256 / tiling.tn)
                    * math.ceil(256 / tiling.tk))
        actual = sum(isinstance(i, CubeMatmul) for i in prog)
        assert actual == expected

    def test_sparse_lowering_uses_decompress(self):
        from repro.isa.instructions import DecompressInstr

        prog = lower_gemm(256, 256, 256, ASCEND_MAX, tag="t",
                          weight_density=0.3)
        assert any(isinstance(i, DecompressInstr) for i in prog)

    def test_sparse_lowering_is_perf_only(self):
        with pytest.raises(CompileError, match="performance-only"):
            lower_gemm(64, 64, 64, ASCEND_MAX, weight_density=0.5,
                       layout=GemmLayout(0, 1024, 2048))

    def test_sparse_weights_cut_l1_to_l0b_traffic(self):
        dense = lower_gemm(512, 512, 512, ASCEND_MAX, tag="t")
        sparse = lower_gemm(512, 512, 512, ASCEND_MAX, tag="t",
                            weight_density=0.25)
        costs = CostModel(ASCEND_MAX)
        t_dense = schedule(dense, costs)
        t_sparse = schedule(sparse, costs)
        assert (t_sparse.moved_bytes(MemSpace.GM, MemSpace.L1)
                < t_dense.moved_bytes(MemSpace.GM, MemSpace.L1))

    def test_a_bytes_scale_cuts_gm_reads(self):
        full = lower_gemm(512, 512, 64, ASCEND_MAX, tag="t")
        scaled = lower_gemm(512, 512, 64, ASCEND_MAX, tag="t",
                            a_bytes_scale=0.25)
        costs = CostModel(ASCEND_MAX)
        assert (schedule(scaled, costs).summary().gm_read_bytes
                < schedule(full, costs).summary().gm_read_bytes)

    def test_bad_a_scale_rejected(self):
        with pytest.raises(CompileError):
            lower_gemm(64, 64, 64, ASCEND_MAX, a_bytes_scale=0.0)


class TestWeightStationarySchedule:
    def test_b_resident_matches_numpy(self, rng):
        m, k, n = 260, 290, 60
        a = (rng.standard_normal((m, k)) * 0.3).astype(np.float16)
        b = (rng.standard_normal((k, n)) * 0.3).astype(np.float16)
        core = AscendCore(ASCEND_MAX)
        layout = GemmLayout(0, 2 ** 20, 2 ** 21)
        prog = lower_gemm(m, k, n, ASCEND_MAX, layout=layout,
                          b_resident=True)
        core.memory.write(Region(MemSpace.GM, 0, (m, k), FP16), a)
        core.memory.write(Region(MemSpace.GM, 2 ** 20, (k, n), FP16), b)
        core.run(prog)
        out = core.memory.read(Region(MemSpace.GM, 2 ** 21, (m, n), FP16))
        ref = a.astype(np.float32) @ b.astype(np.float32)
        assert np.allclose(out.astype(np.float32), ref, atol=5e-2, rtol=5e-2)

    def test_b_resident_slashes_b_path_traffic(self):
        costs = CostModel(ASCEND_MAX)
        base = schedule(lower_gemm(12544, 576, 64, ASCEND_MAX, tag="c"),
                        costs)
        resident = schedule(
            lower_gemm(12544, 576, 64, ASCEND_MAX, tag="c",
                       b_resident=True), costs)
        assert (resident.moved_bytes(MemSpace.L1, MemSpace.L0B)
                < 0.1 * base.moved_bytes(MemSpace.L1, MemSpace.L0B))

    def test_falls_back_when_b_does_not_fit(self):
        # k=4096: even the narrowest tn=16 strip (128 KB) exceeds L0B, so
        # the weight-stationary request falls back to the default schedule.
        base = lower_gemm(128, 4096, 256, ASCEND_MAX, tag="f")
        res = lower_gemm(128, 4096, 256, ASCEND_MAX, tag="f",
                         b_resident=True)
        assert len(base) == len(res)

    def test_b_resident_validates(self):
        prog = lower_gemm(1024, 512, 64, ASCEND_MAX, tag="p",
                          b_resident=True)
        prog.validate(ASCEND_MAX)


class TestVectorLowering:
    def test_elem_passes_charged_exactly(self):
        work = VectorWork(elems=100_000, passes=3, dtype=FP16)
        prog = lower_vector_work(work, ASCEND_MAX, tag="v")
        trace = schedule(prog, CostModel(ASCEND_MAX))
        ideal = work.elems * work.passes * 2 / ASCEND_MAX.vector_width_bytes
        busy = trace.busy_cycles(Pipe.V)
        assert ideal <= busy <= 1.2 * ideal + 100

    def test_chunks_fit_ub(self):
        work = VectorWork(elems=10_000_000, passes=1, dtype=FP16)
        prog = lower_vector_work(work, ASCEND_MAX, tag="v")
        prog.validate(ASCEND_MAX)

    def test_workload_lowering_combines(self):
        work = OpWorkload(
            name="layer",
            gemms=(GemmWork(64, 64, 64),),
            vector=(VectorWork(1000, 2),),
        )
        (prog,) = lower_workload([work], ASCEND_MAX)
        trace = schedule(prog, CostModel(ASCEND_MAX))
        assert trace.busy_cycles(Pipe.M) > 0
        assert trace.busy_cycles(Pipe.V) > 0

    def test_gemm_count_replays(self):
        one, many = lower_workload(
            [OpWorkload(name="x", gemms=(GemmWork(64, 64, 64),)),
             OpWorkload(name="x", gemms=(GemmWork(64, 64, 64, count=3),))],
            ASCEND_MAX)
        assert len(many) == 3 * len(one)
