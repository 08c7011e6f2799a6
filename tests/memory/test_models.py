"""LLC / DRAM / datapath bandwidth model tests."""

import pytest

from repro.config import ASCEND_MAX, ASCEND_TINY
from repro.core import CostModel
from repro.dtypes import FP16
from repro.errors import ConfigError
from repro.isa import CopyInstr, MemSpace, Program, Region
from repro.memory import DatapathModel, DramModel, LlcModel, Route

from tests.core import cost_oracle


class TestLlcModel:
    def _llc(self, capacity_mb=96):
        return LlcModel(capacity_bytes=capacity_mb * 2 ** 20, total_bw=4e12,
                        dram_bw=1.2e12)

    def test_resident_working_set_hits(self):
        assert self._llc().hit_fraction(50 * 2 ** 20) == 1.0

    def test_oversized_working_set_decays(self):
        llc = self._llc(96)
        assert llc.hit_fraction(192 * 2 ** 20) == pytest.approx(0.5)

    def test_bigger_llc_cuts_dram_traffic(self):
        small = self._llc(96)
        big = self._llc(720)
        ws = 400 * 2 ** 20
        assert big.dram_traffic(1e9, ws) < small.dram_traffic(1e9, ws)

    def test_cold_bytes_always_paid(self):
        llc = self._llc()
        assert llc.dram_traffic(0, 1, cold_bytes=123.0) == 123.0

    def test_effective_bandwidth_between_llc_and_dram(self):
        llc = self._llc()
        bw = llc.effective_bandwidth(200 * 2 ** 20)
        assert llc.dram_bw < bw < llc.total_bw

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            LlcModel(0, 1.0, 1.0)


class TestDramModel:
    def test_transfer_time(self):
        dram = DramModel(bandwidth=1e12, latency_s=100e-9, utilization=1.0)
        assert dram.transfer_time(1e12) == pytest.approx(1.0, rel=1e-3)

    def test_zero_bytes_free(self):
        assert DramModel(bandwidth=1e12).transfer_time(0) == 0.0

    def test_utilization_bounds(self):
        with pytest.raises(ConfigError):
            DramModel(bandwidth=1e12, utilization=1.5)


class TestDatapathModel:
    def test_route_widths_follow_table5(self):
        dp = DatapathModel(ASCEND_MAX)
        # 4 TB/s and 2 TB/s at 1 GHz (decimal units, as Table 5 states).
        assert dp.bytes_per_cycle(Route.L1_TO_L0A) == 4000
        assert dp.bytes_per_cycle(Route.L1_TO_L0B) == 2000

    def test_cycles_include_overhead(self):
        dp = DatapathModel(ASCEND_MAX)
        assert dp.width_matrix()[MemSpace.L1, MemSpace.L0A] == 4000
        move = CopyInstr(dst=Region(MemSpace.L0A, 0, (2000,), FP16),
                         src=Region(MemSpace.L1, 0, (2000,), FP16))
        (cycles,) = CostModel(ASCEND_MAX).cost_columns(
            Program([move]).arena).tolist()
        assert cycles == DatapathModel.TRANSFER_OVERHEAD_CYCLES + 1
        assert cycles == cost_oracle.transfer_cycles(
            dp, MemSpace.L1, MemSpace.L0A, 4000)

    def test_tiny_gm_falls_back_to_ub_width(self):
        dp = DatapathModel(ASCEND_TINY)
        assert dp.bytes_per_cycle(Route.GM_PORT) == pytest.approx(
            ASCEND_TINY.ub_bytes_per_cycle)
