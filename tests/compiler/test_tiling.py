"""Auto-tiling search tests."""

from repro.compiler import choose_tiling, legal_tilings
from repro.compiler.tiling import tiling_space
from repro.config import ASCEND_MAX, ASCEND_TINY
from repro.dtypes import INT8

from tests.compiler.tiling_oracle import estimate_gemm_cycles


class TestLegalTilings:
    def test_all_candidates_fit_double_buffered(self):
        for tiling in legal_tilings(512, 512, 512, ASCEND_MAX):
            a0 = tiling.tm * tiling.tk * 2 * 2
            b0 = tiling.tk * tiling.tn * 2 * 2
            c0 = tiling.tm * tiling.tn * 4 * 2
            assert a0 <= ASCEND_MAX.l0a_bytes
            assert b0 <= ASCEND_MAX.l0b_bytes
            assert c0 <= ASCEND_MAX.l0c_bytes

    def test_tiles_are_cube_multiples(self):
        for tiling in legal_tilings(512, 512, 512, ASCEND_MAX):
            assert tiling.tm % 16 == 0
            assert tiling.tk % 16 == 0
            assert tiling.tn % 16 == 0

    def test_small_problem_has_single_tile(self):
        tilings = legal_tilings(8, 8, 8, ASCEND_MAX)
        assert all(t.tm == 16 and t.tk == 16 and t.tn == 16 for t in tilings)

    def test_tiny_core_small_tilings(self):
        tilings = legal_tilings(1024, 64, 64, ASCEND_TINY, INT8)
        assert tilings  # always at least the native tile
        for tiling in tilings:
            assert tiling.tm * tiling.tk * 2 <= ASCEND_TINY.l0a_bytes


class TestChooseTiling:
    def test_picks_lowest_modeled_cost(self):
        best = choose_tiling(1024, 768, 768, ASCEND_MAX)
        space = tiling_space(1024, 768, 768, ASCEND_MAX)
        best_cost = space.cycles[space.tilings().index(best)]
        assert best_cost == space.cycles.min()
        for other in legal_tilings(1024, 768, 768, ASCEND_MAX):
            other_cost = estimate_gemm_cycles(1024, 768, 768, other,
                                              ASCEND_MAX)
            assert best_cost <= other_cost

    def test_large_gemm_prefers_big_tiles(self):
        tiling = choose_tiling(4096, 4096, 4096, ASCEND_MAX)
        # Startup amortization should push well past the native tile.
        assert tiling.tm >= 64 and tiling.tn >= 64

    def test_k_stage_never_exceeds_k(self):
        tiling = choose_tiling(128, 100, 128, ASCEND_MAX)
        assert tiling.k_stage <= 100


class TestCostEstimate:
    def test_bigger_problem_costs_more(self):
        t = choose_tiling(256, 256, 256, ASCEND_MAX)
        small = estimate_gemm_cycles(256, 256, 256, t, ASCEND_MAX)
        big = estimate_gemm_cycles(512, 512, 512, t, ASCEND_MAX)
        assert big > small

    def test_cube_bound_large_gemm_near_ideal(self):
        m = k = n = 2048
        tiling = choose_tiling(m, k, n, ASCEND_MAX)
        cycles = estimate_gemm_cycles(m, k, n, tiling, ASCEND_MAX)
        ideal = m * k * n / ASCEND_MAX.cube.macs_per_cycle
        assert cycles <= 1.5 * ideal
