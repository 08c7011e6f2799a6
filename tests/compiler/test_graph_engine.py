"""Graph Engine tests: whole-model compilation and stream generation."""

import pytest

from repro.compiler import GraphEngine
from repro.compiler.op_library import matmul_op
from repro.config import ASCEND, ASCEND_MAX
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.models import build_model
from repro.profiling import PerfCounters


class TestCompileWorkload:
    def test_cycles_positive_and_consistent(self, max_engine):
        work = OpWorkload(name="w", gemms=(GemmWork(256, 256, 256),),
                          vector=(VectorWork(65536, 1),))
        layer = max_engine.compile_workload(work)
        assert layer.cycles >= max(layer.cube_cycles, layer.vector_cycles)
        assert layer.instr_count > 0

    def test_cache_hits_for_identical_structure(self):
        engine = GraphEngine(ASCEND_MAX)
        w1 = OpWorkload(name="a", gemms=(GemmWork(128, 128, 128),))
        w2 = OpWorkload(name="b", gemms=(GemmWork(128, 128, 128),))
        l1 = engine.compile_workload(w1)
        l2 = engine.compile_workload(w2)
        assert l2.cycles == l1.cycles
        assert l2.name == "b"  # renamed, same stats

    def test_ratio_semantics(self, max_engine):
        cube_only = max_engine.compile_workload(
            OpWorkload(name="c", gemms=(GemmWork(512, 512, 512),)))
        assert PerfCounters.from_layer(cube_only).cube_vector_ratio > 1

    def test_vector_only_layer_has_zero_ratio(self, max_engine):
        vec_only = max_engine.compile_workload(
            OpWorkload(name="v", vector=(VectorWork(100000, 4),)))
        assert PerfCounters.from_layer(vec_only).cube_vector_ratio == 0.0


class TestCompileGraph:
    def test_resnet_layer_count(self, resnet50_compiled):
        assert len(resnet50_compiled.layers) == 19

    def test_total_cycles_sum(self, resnet50_compiled):
        assert resnet50_compiled.total_cycles == sum(
            l.cycles for l in resnet50_compiled.layers)

    def test_reasonable_utilization(self, resnet50_compiled):
        """Batch-1 ResNet-50 should land at realistic cube utilization."""
        util = resnet50_compiled.cube_utilization()
        assert 0.2 < util < 0.9

    def test_latency_magnitude(self, resnet50_compiled):
        # Batch-1 ResNet-50 on one big core: single-digit milliseconds.
        assert 0.5e-3 < resnet50_compiled.seconds < 10e-3

    def test_transformer_layers_share_cache(self):
        engine = GraphEngine(ASCEND_MAX)
        bert = build_model("bert-base", batch=1, seq=128)
        compiled = engine.compile_graph(bert)
        qkv = [l for l in compiled.layers if l.name.endswith(".qkv")]
        assert len(qkv) == 12
        assert len({l.cycles for l in qkv}) == 1  # identical layers


class TestStreams:
    def test_stream_structure(self, max_engine, resnet50_compiled):
        stream = max_engine.to_streams(resnet50_compiled, blocks_per_task=4)
        assert len(stream) == len(resnet50_compiled.layers)
        assert all(len(t.blocks) == 4 for t in stream.tasks)

    def test_block_cycles_partition_task(self, max_engine, resnet50_compiled):
        stream = max_engine.to_streams(resnet50_compiled, blocks_per_task=2)
        for task, layer in zip(stream.tasks, resnet50_compiled.layers):
            assert task.critical_cycles >= layer.cycles / 2


class TestOpLibraryIntegration:
    def test_matmul_op_cycles_match_engine(self, max_core, rng):
        """The op-library path and the analytic path agree on cost scale."""
        import numpy as np

        a = rng.standard_normal((128, 128)).astype(np.float16)
        b = rng.standard_normal((128, 128)).astype(np.float16)
        _, result = matmul_op(max_core, a, b)
        engine = GraphEngine(ASCEND_MAX)
        layer = engine.compile_workload(
            OpWorkload(name="mm", gemms=(GemmWork(128, 128, 128),)))
        assert result.cycles == pytest.approx(layer.cycles, rel=0.25)
