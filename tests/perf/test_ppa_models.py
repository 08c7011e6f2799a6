"""PPA model tests: the Table 3/4 anchors must come back out."""

import pytest

from repro.config import ASCEND, ASCEND_LITE, ASCEND_MAX, ASCEND_TINY
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.perf import (
    EnergyModel,
    PpaRow,
    core_area_mm2,
    cube_perf_density,
    format_table,
    unit_areas,
)


class TestAreaTable3:
    def test_unit_areas_match_anchors(self):
        areas = unit_areas(ASCEND_MAX, node_nm=7)
        assert areas["scalar"] == pytest.approx(0.04, rel=0.01)
        assert areas["vector"] == pytest.approx(0.70, rel=0.01)
        assert areas["cube"] == pytest.approx(2.57, rel=0.01)

    def test_perf_per_area_ordering(self):
        """Table 3: cube ~3.11, vector ~0.36, scalar ~0.05 TFLOPS/mm2."""
        areas = unit_areas(ASCEND_MAX, node_nm=7)
        cube_density = 8e12 / areas["cube"] / 1e12
        vec_density = 256e9 / areas["vector"] / 1e12
        assert cube_density == pytest.approx(3.11, rel=0.02)
        assert vec_density == pytest.approx(0.36, rel=0.03)
        assert cube_density > 8 * vec_density  # "one order" better

    def test_lite_core_smaller_than_max(self):
        assert core_area_mm2(ASCEND_LITE) < core_area_mm2(ASCEND_MAX)


class TestTable4Density:
    def test_16_cube_density_beats_4_cube_gpu_sm(self):
        """Table 4: 600 vs 330 GFLOPS/mm2 at 12 nm."""
        ascend = cube_perf_density(ASCEND_MAX, node_nm=12)
        # The GPU SM reference point from the paper.
        gpu_sm = 1.7e12 / 5.2 / 1e9
        assert ascend > 1.5 * gpu_sm
        assert 400 < ascend < 900

    def test_throughput_grows_faster_than_area(self):
        """4.7x throughput for 2.5x area when going 4^3 x8 -> 16^3."""
        from repro.config.core_configs import CubeShape

        small_macs = 8 * CubeShape(4, 4, 4).macs_per_cycle
        big_macs = CubeShape(16, 16, 16).macs_per_cycle
        assert big_macs / small_macs == 8.0  # raw MAC ratio


class TestEnergyTable3:
    def test_cube_power_matches(self):
        model = EnergyModel(ASCEND_MAX)
        assert model.cube_power_w() == pytest.approx(3.13, rel=0.01)
        assert model.cube_tflops_per_w() == pytest.approx(2.56, rel=0.03)

    def test_vector_power_matches(self):
        model = EnergyModel(ASCEND_MAX)
        assert model.vector_power_w() == pytest.approx(0.46, rel=0.01)
        assert model.vector_tflops_per_w() == pytest.approx(0.56, rel=0.02)

    def test_cube_an_order_more_efficient(self):
        model = EnergyModel(ASCEND_MAX)
        assert model.cube_tflops_per_w() > 4 * model.vector_tflops_per_w()

    def test_workload_energy_positive_and_additive(self):
        model = EnergyModel(ASCEND_MAX)
        gemm = OpWorkload(name="g", gemms=(GemmWork(512, 512, 512),))
        vec = OpWorkload(name="v", vector=(VectorWork(1_000_000, 2),))
        both = model.workload_energy_j([gemm, vec])
        assert both == pytest.approx(
            model.workload_energy_j([gemm]) + model.workload_energy_j([vec]))

    def test_int8_cheaper_than_fp16(self):
        model = EnergyModel(ASCEND_MAX)
        w = [OpWorkload(name="g", gemms=(GemmWork(512, 512, 512),))]
        assert model.workload_energy_j(w, int8=True) \
            < model.workload_energy_j(w, int8=False)

    def test_kirin_class_tops_per_watt(self):
        """Table 8: Kirin 990 5G at 4.6 TOPS/W."""
        model = EnergyModel(ASCEND_LITE)
        assert 2.5 < model.tops_per_watt_int8() < 9.0

    def test_tiny_has_no_fp16_mode(self):
        model = EnergyModel(ASCEND_TINY)
        assert model.tops_per_watt_int8() > 0


class TestPpaTable:
    def test_format_contains_rows_and_metrics(self):
        rows = [
            PpaRow("ascend-910", peak_ops=256e12, power_w=300, area_mm2=624,
                   process_nm=7, metrics={"ResNet50 img/s": 1809}),
            PpaRow("v100", peak_ops=125e12, power_w=300, area_mm2=815,
                   process_nm=12, metrics={"ResNet50 img/s": 1058}),
        ]
        text = format_table(rows, ["ResNet50 img/s"], title="Table 7")
        assert "ascend-910" in text and "v100" in text
        assert "1809" in text and "1058" in text

    def test_tops_per_watt_property(self):
        row = PpaRow("x", peak_ops=6.88e12, power_w=1.5)
        assert row.tops_per_watt == pytest.approx(4.59, rel=0.01)

    def test_missing_fields_render_dash(self):
        text = format_table([PpaRow("mystery")])
        assert "-" in text
