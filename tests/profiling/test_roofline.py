"""Roofline / bottleneck attribution tests."""

import math

import pytest

from repro.compiler import GraphEngine
from repro.config import ASCEND, ASCEND_LITE
from repro.dtypes import FP16, INT8
from repro.graph.workload import GemmWork, OpWorkload
from repro.isa import Pipe
from repro.models import build_model
from repro.profiling import PerfCounters
from repro.profiling.roofline import (
    layer_rooflines,
    model_rooflines,
    roofline_table,
)


def _work(macs, *dtypes):
    """A workload of ``macs`` MACs: one 1 x 1 x ``macs`` GEMM per dtype
    (fp16 if none given), or no GEMM for 0 MACs."""
    if not macs:
        return OpWorkload(name="w")
    dtypes = dtypes or (FP16,)
    return OpWorkload(name="w", gemms=tuple(
        GemmWork(1, 1, macs // len(dtypes), dtype=dtype) for dtype in dtypes))


def _counters(cycles, busy, gm_read=0, gm_write=0):
    counters = PerfCounters()
    counters.total_cycles = cycles
    for pipe, value in busy.items():
        counters.busy_by_pipe[int(pipe)] = value
    counters.gm_read_bytes = gm_read
    counters.gm_write_bytes = gm_write
    return counters


class TestAttribution:
    def test_busiest_pipe_binds(self):
        rows = layer_rooflines([
            ("conv", _work(1000), _counters(100, {Pipe.M: 90, Pipe.V: 40},
                                            gm_read=200)),
            ("softmax", _work(100), _counters(100, {Pipe.V: 70, Pipe.M: 10})),
            ("load", _work(0), _counters(100, {Pipe.MTE2: 95})),
        ], ASCEND)
        assert [r.bound for r in rows] == ["cube", "vector", "llc-in"]
        assert rows[0].bound_occupancy == pytest.approx(0.9)

    def test_idle_layer(self):
        (row,) = layer_rooflines([("nop", _work(0), _counters(0, {}))],
                                 ASCEND)
        assert row.bound == "idle"
        assert row.efficiency == 0.0

    def test_roofline_coordinates(self):
        (row,) = layer_rooflines(
            [("gemm", _work(4096), _counters(2, {Pipe.M: 2}, gm_read=512,
                                             gm_write=512))], ASCEND)
        assert row.intensity == pytest.approx(4096 / 1024)
        assert row.achieved_macs_per_cycle == pytest.approx(2048)
        assert row.peak_macs_per_cycle == ASCEND.cube.macs_per_cycle
        assert 0 < row.efficiency <= 1.0

    def test_peak_follows_the_gemm_dtype(self):
        """int8 GEMMs are held to the int8 rate, mixed dtypes to the
        highest rate, and a layer without GEMMs to the native rate."""
        rows = layer_rooflines([
            (name, work, _counters(1, {Pipe.M: 1}))
            for name, work in (("fp16", _work(64)),
                               ("int8", _work(64, INT8)),
                               ("fp16+int8", _work(64, FP16, INT8)),
                               ("int8+fp16", _work(64, INT8, FP16)),
                               ("vector", _work(0)))], ASCEND)
        fp16 = ASCEND.cube.macs_per_cycle
        assert [r.peak_macs_per_cycle for r in rows] == \
            [fp16, 2 * fp16, 2 * fp16, 2 * fp16, fp16]

    def test_infinite_intensity_without_gm_traffic(self):
        (row,) = layer_rooflines(
            [("onchip", _work(64), _counters(4, {Pipe.V: 4}))], ASCEND)
        assert math.isinf(row.intensity)

    def test_llc_bound_flag(self):
        limit = ASCEND.llc_bytes_per_cycle
        (hot,) = layer_rooflines(
            [("hot", _work(1), _counters(10, {Pipe.MTE2: 10},
                                         gm_read=int(limit * 20)))], ASCEND)
        assert hot.llc_demand_bytes_per_cycle > limit
        assert hot.llc_bound


class TestModelRooflines:
    @pytest.fixture(scope="class")
    def rooflines(self):
        compiled = GraphEngine(ASCEND).compile_graph(build_model("gesture"))
        return model_rooflines(compiled)

    def test_every_layer_attributed(self, rooflines):
        assert rooflines
        for row in rooflines:
            assert row.bound in {"cube", "vector", "l1-feed", "llc-in",
                                 "writeback", "idle"}
            assert 0.0 <= row.bound_occupancy <= 1.0
            # Tile quantization can only round a layer's cycles up.
            assert row.efficiency <= 1.0

    def test_int8_layers_stay_under_their_peak(self):
        """gesture is int8: on an fp16-baseline cube its layers run at
        up to twice the fp16 rate, which is the peak they are held to."""
        compiled = GraphEngine(ASCEND_LITE).compile_graph(
            build_model("gesture"))
        rows = model_rooflines(compiled)
        for row in rows:
            assert row.efficiency <= 1.0
        assert any(r.peak_macs_per_cycle
                   == ASCEND_LITE.cube_macs_per_cycle(INT8) for r in rows)

    def test_table_renders(self, rooflines):
        table = roofline_table(rooflines)
        assert "binding resource tally" in table
        assert rooflines[0].name in table
