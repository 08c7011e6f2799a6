"""Analysis harness tests: the figure/table extractors."""

import math

import pytest

from repro.analysis import (
    ascii_chart,
    ascii_table,
    l1_bandwidth_profile,
    memory_wall_table,
    ratio_points,
)
from repro.compiler import GraphEngine
from repro.config import ASCEND_910, ASCEND_MAX, ASCEND_TINY
from repro.models import build_model, training_workloads
from repro.profiling import model_counters


def _ratios(graph, engine, workloads=None):
    """Figure 4-8 points, as the ratio benchmarks read them."""
    compiled = engine.compile_graph(graph, workloads=workloads)
    return ratio_points(model_counters(compiled))


class TestRatios:
    def test_resnet_first_layer_near_one(self, max_engine):
        """Figure 7: early ResNet-50 layers have ratio close to 1."""
        points = _ratios(build_model("resnet50", batch=1), max_engine)
        conv1 = next(p for p in points if p.layer == "conv1")
        assert 0.7 < conv1.ratio < 2.5

    def test_resnet_deep_layers_above_one(self, max_engine):
        points = _ratios(build_model("resnet50", batch=1), max_engine)
        conv5 = [p for p in points if p.layer.startswith("conv5")]
        assert all(p.ratio > 5 for p in conv5)

    def test_mobilenet_mostly_below_one(self, max_engine):
        """Figure 6: most MobileNet layers sit in (0, 1)."""
        points = _ratios(build_model("mobilenet_v2", batch=1), max_engine)
        in_band = [p for p in points if 0 < p.ratio < 1]
        assert len(in_band) >= 0.7 * len(points)

    def test_bert_mostly_above_one(self, max_engine):
        """Figure 4: most BERT layers have ratio much greater than 1."""
        points = _ratios(build_model("bert-base", batch=1,
                                                seq=128), max_engine)
        above = [p for p in points if p.ratio > 1]
        assert len(above) >= 0.7 * len(points)

    def test_bert_training_lower_than_inference(self, max_engine):
        """Figure 5 vs Figure 4: training shifts ratios down."""
        graph = build_model("bert-base", batch=1, seq=128)
        inf = _ratios(graph, max_engine)
        tra = _ratios(graph, max_engine, workloads=training_workloads(graph))
        inf_med = sorted(p.ratio for p in inf)[len(inf) // 2]
        tra_med = sorted(p.ratio for p in tra)[len(tra) // 2]
        assert tra_med < inf_med

    def test_gesture_convs_above_one_on_tiny(self):
        """Figure 8: every gesture-net layer ratio exceeds 1 on Tiny."""
        points = _ratios(build_model("gesture", batch=1),
                         GraphEngine(ASCEND_TINY))
        convs = [p for p in points if p.layer.startswith("conv")]
        assert all(p.ratio > 1 for p in convs)

    def test_vector_hidden_property(self, max_engine):
        points = _ratios(build_model("resnet50", batch=1), max_engine)
        for p in points:
            assert p.vector_hidden == (p.ratio >= 1)


class TestL1Bandwidth:
    def test_reads_under_4096_bits_per_cycle(self, max_engine):
        """Figure 9's headline bound."""
        for model in ("resnet50", "mobilenet_v2"):
            points = l1_bandwidth_profile(build_model(model, batch=1),
                                          ASCEND_MAX, engine=max_engine)
            assert all(p.read_bits_per_cycle <= 4096 for p in points), model

    def test_writes_under_reads(self, max_engine):
        points = l1_bandwidth_profile(build_model("resnet50", batch=1),
                                      ASCEND_MAX, engine=max_engine)
        total_r = sum(p.read_bits_per_cycle * p.cycles for p in points)
        total_w = sum(p.write_bits_per_cycle * p.cycles for p in points)
        assert total_w < total_r

    def test_mobilenet_demands_more_than_resnet(self, max_engine):
        """Figure 9: 'MobileNet shows more L1 memory bandwidth
        requirement' (relative to its compute)."""

        def mean_read(model):
            pts = l1_bandwidth_profile(build_model(model, batch=1),
                                       ASCEND_MAX, engine=max_engine)
            num = sum(p.read_bits_per_cycle * p.cycles for p in pts)
            den = sum(p.cycles for p in pts)
            return num / den

        assert mean_read("mobilenet_v2") > 0  # profile exists
        # Normalize by achieved MACs/cycle: MobileNet pays more bytes/MAC.
        def bytes_per_mac(model):
            g = build_model(model, batch=1)
            pts = l1_bandwidth_profile(g, ASCEND_MAX, engine=max_engine)
            total_bits = sum((p.read_bits_per_cycle + p.write_bits_per_cycle)
                             * p.cycles for p in pts)
            return total_bits / 8 / g.total_macs()

        assert bytes_per_mac("mobilenet_v2") > 2 * bytes_per_mac("resnet50")


class TestMemoryWall:
    def test_table6_structure(self):
        rows = memory_wall_table(ASCEND_910)
        assert [r.level for r in rows][:2] == ["Cube Engine", "L0 Memory"]
        assert len(rows) == 7

    def test_cube_demand_is_2048_tb_s(self):
        rows = memory_wall_table(ASCEND_910)
        assert rows[0].bandwidth_tb_s == pytest.approx(2048, rel=0.05)

    def test_ratios_match_paper(self):
        rows = memory_wall_table(ASCEND_910)
        by_level = {r.level: r for r in rows}
        assert by_level["L1 Memory"].ratio_to_cube == pytest.approx(0.1)
        assert by_level["LLC Memory"].ratio_to_cube == pytest.approx(0.01)
        assert by_level["HBM Memory"].ratio_to_cube == pytest.approx(
            1 / 2000, rel=0.3)
        assert by_level["Inter AI Server"].ratio_to_cube == pytest.approx(
            1 / 200_000, rel=0.3)

    def test_monotone_decreasing(self):
        rows = memory_wall_table(ASCEND_910)
        bws = [r.bandwidth_bytes_per_s for r in rows]
        assert bws == sorted(bws, reverse=True)


class TestReporting:
    def test_ascii_table(self):
        text = ascii_table(["a", "b"], [[1, 2.5], ["x", 3.0]], title="T")
        assert "T" in text and "2.5" in text and "x" in text

    def test_ascii_chart_marker(self):
        text = ascii_chart([("l1", 0.5), ("l2", 2.0)], width=20,
                           marker_at=1.0)
        assert "l1" in text and "2.00" in text

    def test_ascii_chart_handles_inf(self):
        text = ascii_chart([("x", math.inf), ("y", 1.0)], width=10)
        assert "inf" in text
