"""End-to-end integration tests across the full stack."""

import numpy as np
import pytest

from repro import (
    ASCEND_MAX,
    AscendCore,
    GraphEngine,
    Pipe,
    build_model,
    dense_op,
    matmul_op,
)
from repro.compiler import conv2d_op
from repro.core.engine import schedule
from repro.core.costs import CostModel
from repro.compiler import lower_workload


class TestOpLibraryNumerics:
    def test_three_layer_mlp_matches_numpy(self, rng):
        """Chain real kernels: x -> dense(relu) -> dense(relu) -> dense."""
        core = AscendCore(ASCEND_MAX)
        x = (rng.standard_normal((8, 64)) * 0.3).astype(np.float16)
        w1 = (rng.standard_normal((64, 128)) * 0.2).astype(np.float16)
        w2 = (rng.standard_normal((128, 64)) * 0.2).astype(np.float16)
        w3 = (rng.standard_normal((64, 10)) * 0.2).astype(np.float16)
        h1, _ = dense_op(core, x, w1, activation="relu")
        h2, _ = dense_op(core, h1, w2, activation="relu")
        out, _ = dense_op(core, h2, w3)
        ref = np.maximum(x.astype(np.float32) @ w1.astype(np.float32), 0)
        ref = np.maximum(ref.astype(np.float16).astype(np.float32)
                         @ w2.astype(np.float32), 0)
        ref = ref.astype(np.float16).astype(np.float32) @ w3.astype(np.float32)
        assert np.allclose(out.astype(np.float32), ref, atol=0.05, rtol=0.05)

    def test_conv_then_dense(self, rng):
        core = AscendCore(ASCEND_MAX)
        img = (rng.standard_normal((8, 8, 4)) * 0.3).astype(np.float16)
        wconv = (rng.standard_normal((3, 3, 4, 8)) * 0.2).astype(np.float16)
        feat, _ = conv2d_op(core, img, wconv, padding=(1, 1),
                            activation="relu")
        wfc = (rng.standard_normal((8 * 8 * 8, 10)) * 0.1).astype(np.float16)
        out, _ = dense_op(core, feat.reshape(1, -1), wfc)
        assert out.shape == (1, 10)
        assert np.isfinite(out.astype(np.float32)).all()


class TestCompilerAgainstSimulator:
    def test_analytic_estimate_tracks_simulated_cycles(self):
        """The tiling cost model and the event engine must agree within
        a small factor — otherwise auto-tiling optimizes the wrong thing."""
        from repro.compiler import lower_gemm
        from repro.compiler.tiling import tiling_space

        costs = CostModel(ASCEND_MAX)
        for m, k, n in [(256, 256, 256), (1024, 768, 768), (64, 2048, 64)]:
            # The chosen tiling's estimate: the cheapest row of the space.
            est = float(tiling_space(m, k, n, ASCEND_MAX).cycles.min())
            sim = schedule(lower_gemm(m, k, n, ASCEND_MAX, tag="t"),
                           costs).total_cycles
            assert sim == pytest.approx(est, rel=0.6), (m, k, n)

    def test_resnet_cube_dominates_total_time(self, resnet50_compiled):
        cube = sum(l.cube_cycles for l in resnet50_compiled.layers)
        assert cube > 0.4 * resnet50_compiled.total_cycles


class TestScalingAcrossDesignPoints:
    def test_smaller_cores_are_slower(self):
        from repro.config import ASCEND_LITE, ASCEND_MAX

        g = build_model("mobilenet_v2", batch=1)
        t_max = GraphEngine(ASCEND_MAX).compile_graph(g).seconds
        t_lite = GraphEngine(ASCEND_LITE).compile_graph(g).seconds
        assert t_lite > 1.5 * t_max

    def test_lite_cube_utilization_better_at_batch_one(self):
        """Section 3.2: the 4x16x16 Lite cube wastes less of its m
        dimension at batch 1 than a 16x16x16 cube would."""
        from repro.config import ASCEND_LITE, ASCEND_MAX
        from repro.graph.workload import GemmWork, OpWorkload

        # A batch-1 pointwise conv late in MobileNet: m = 49 pixels.
        work = OpWorkload(name="pw", gemms=(GemmWork(49, 960, 160),))
        lite = GraphEngine(ASCEND_LITE).compile_workload(work)
        maxc = GraphEngine(ASCEND_MAX).compile_workload(work)
        util_lite = work.macs / (lite.cube_cycles
                                 * ASCEND_LITE.cube.macs_per_cycle)
        util_max = work.macs / (maxc.cube_cycles
                                * ASCEND_MAX.cube.macs_per_cycle)
        assert util_lite > util_max
