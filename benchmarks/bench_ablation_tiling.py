"""Ablation (Section 5.1): Auto-Tiling search quality.

«"Auto Tiling" ... offers the best tiling and scheduling for any program
by intelligently searching legitimate mapping space.»  Compare the
searched tiling against (a) the naive native-cube tiling and (b) the
worst legal tiling, on real layer shapes from the model zoo.
"""

import numpy as np

from repro.analysis import ascii_table
from repro.bench import run_sweep
from repro.compiler import lower_gemm
from repro.compiler.tiling import Tiling, choose_tiling, tiling_space
from repro.config import ASCEND_MAX
from repro.core.costs import CostModel
from repro.core.engine import schedule

# (layer, m, k, n) — representative shapes from ResNet-50 / BERT (the
# conv shapes are one spatial quarter of the batch-1 layer, to keep the
# naive-tiling simulation at a reasonable instruction count).
_SHAPES = [
    ("resnet conv3x3", 784, 1152, 128),
    ("resnet conv1x1", 784, 256, 64),
    ("bert qkv", 128, 768, 768),
    ("bert ffn", 128, 768, 3072),
]


def _simulate(m, k, n, tiling):
    prog = lower_gemm(m, k, n, ASCEND_MAX, tag="t", tiling=tiling)
    return schedule(prog, CostModel(ASCEND_MAX)).total_cycles


def _ablate_shape(job):
    """Sweep worker: (searched, naive, worst) cycles for one GEMM shape."""
    name, m, k, n = job
    searched = _simulate(m, k, n, choose_tiling(m, k, n, ASCEND_MAX))
    naive = _simulate(m, k, n, Tiling(16, 16, 16, min(k, 16)))
    # Worst legal candidate ranked analytically, the first on ties
    # (simulating every candidate would dominate the suite's runtime).
    space = tiling_space(m, k, n, ASCEND_MAX)
    worst = _simulate(m, k, n, space.tiling(int(np.argmax(space.cycles))))
    return name, searched, naive, worst


def test_auto_tiling_beats_naive(report, benchmark):
    def run_all():
        return run_sweep(_SHAPES, _ablate_shape)

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report("ablation_tiling", ascii_table(
        ["layer", "auto-tiled cycles", "naive 16^3 cycles",
         "worst legal cycles", "speedup vs naive"],
        [[name, s, nv, w, f"{nv / s:.2f}x"] for name, s, nv, w in rows],
        title="Auto-Tiling ablation (Section 5.1)"))

    for name, searched, naive, worst in rows:
        assert searched <= naive, name  # never worse than naive
        assert searched <= worst, name
    # On the big conv shapes the search should win clearly.
    big = [r for r in rows if r[1] > 50_000]
    assert any(naive / searched > 1.3 for _, searched, naive, _ in big)
