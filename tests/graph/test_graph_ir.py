"""Graph IR tests: tensors, ops, DAG, builder, shape inference."""

from dataclasses import dataclass

import pytest

from repro.dtypes import FP16, INT8, INT32
from repro.errors import GraphError
from repro.graph import (
    Conv2D,
    DepthwiseConv2D,
    Graph,
    GraphBuilder,
    Input,
    TensorSpec,
)
from repro.graph.ops import Op, Reshape
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.models import MODEL_BUILDERS, build_model, training_workloads
from repro.models.training import backward_workload, optimizer_workload


@dataclass(frozen=True)
class _Fixed(Op):
    """An op with a given workload."""

    work: OpWorkload = None

    def workload(self) -> OpWorkload:
        return self.work


def _merge(first, other, name):
    """The pairwise fuse that grouped and training workloads were built
    from, one call per op, before ``OpWorkload.fused``."""
    return OpWorkload(
        name=name,
        gemms=first.gemms + other.gemms,
        vector=first.vector + other.vector,
        weight_bytes=first.weight_bytes + other.weight_bytes,
        input_bytes=first.input_bytes,
        output_bytes=other.output_bytes or first.output_bytes,
    )


def _merged_chain(graph):
    """Grouped workloads as one pairwise :func:`_merge` per op fused
    them before groups were accumulated once."""
    order, merged = [], {}
    for op in graph.nodes:
        if isinstance(op, Input):
            continue
        group = op.group or op.name
        work = op.workload()
        if group in merged:
            merged[group] = _merge(merged[group], work, group)
        else:
            order.append(group)
            merged[group] = OpWorkload(
                name=group, gemms=work.gemms, vector=work.vector,
                weight_bytes=work.weight_bytes,
                input_bytes=work.input_bytes,
                output_bytes=work.output_bytes)
    return [(g, merged[g]) for g in order]


class TestTensorSpec:
    def test_elems_nbytes(self):
        t = TensorSpec("x", (2, 3, 4), FP16)
        assert t.elems == 24
        assert t.nbytes == 48

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphError):
            TensorSpec("x", (2, 0), FP16)

    def test_needs_name(self):
        with pytest.raises(GraphError):
            TensorSpec("", (1,), FP16)


class TestBuilderShapes:
    def test_conv_output_shape(self):
        b = GraphBuilder("t")
        x = b.input("img", (1, 224, 224, 3))
        y = b.conv2d(x, 64, kernel=7, stride=2, padding=3)
        assert y.shape == (1, 112, 112, 64)

    def test_conv_collapse_rejected(self):
        b = GraphBuilder("t")
        x = b.input("img", (1, 4, 4, 3))
        with pytest.raises(GraphError, match="collapses"):
            b.conv2d(x, 8, kernel=7)

    def test_depthwise_preserves_channels(self):
        b = GraphBuilder("t")
        x = b.input("img", (1, 56, 56, 32))
        y = b.depthwise_conv2d(x, kernel=3, stride=2, padding=1)
        assert y.shape == (1, 28, 28, 32)

    def test_dense_shape(self):
        b = GraphBuilder("t")
        x = b.input("x", (4, 128))
        assert b.dense(x, 64).shape == (4, 64)

    def test_batch_matmul_shapes(self):
        b = GraphBuilder("t")
        q = b.input("q", (12, 128, 64))
        k = b.input("k", (12, 128, 64))
        scores = b.batch_matmul(q, k, transpose_b=True)
        assert scores.shape == (12, 128, 128)
        v = b.input("v", (12, 128, 64))
        ctx = b.batch_matmul(scores, v)
        assert ctx.shape == (12, 128, 64)

    def test_batch_matmul_mismatch_rejected(self):
        b = GraphBuilder("t")
        q = b.input("q", (2, 8, 16))
        k = b.input("k", (2, 32, 8))
        with pytest.raises(GraphError, match="contraction"):
            b.batch_matmul(q, k)

    def test_pool_shape(self):
        b = GraphBuilder("t")
        x = b.input("x", (1, 112, 112, 64))
        assert b.pool2d(x, kernel=3, stride=2, padding=1).shape \
            == (1, 56, 56, 64)

    def test_add_shape_check(self):
        b = GraphBuilder("t")
        x = b.input("x", (1, 8, 8, 4))
        y = b.input("y", (1, 8, 8, 8))
        with pytest.raises(GraphError, match="mismatch"):
            b.add(x, y)

    def test_embedding_appends_dim(self):
        b = GraphBuilder("t")
        ids = b.input("ids", (2, 16), dtype=INT32)
        assert b.embedding(ids, 1000, 64).shape == (2, 16, 64)

    def test_unknown_activation_rejected(self):
        b = GraphBuilder("t")
        x = b.input("x", (4,))
        with pytest.raises(GraphError, match="unknown activation"):
            b.activation(x, "mish")

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError, match="empty"):
            GraphBuilder("t").build()


class TestGraphStructure:
    def test_duplicate_node_rejected(self):
        g = Graph("t")
        t = TensorSpec("a", (1,), FP16)
        g.add(Input(name="n", inputs=(), output=t))
        with pytest.raises(GraphError, match="duplicate"):
            g.add(Input(name="n", inputs=(), output=t.with_name("b")))

    def test_unknown_input_rejected(self):
        g = Graph("t")
        ghost = TensorSpec("ghost", (1,), FP16)
        out = TensorSpec("o", (1,), FP16)
        with pytest.raises(GraphError, match="unknown tensor"):
            g.add(Reshape(name="r", inputs=(ghost,), output=out))

    def test_outputs_are_unconsumed(self):
        b = GraphBuilder("t")
        x = b.input("x", (4,))
        y = b.relu(x)
        g = b.build()
        assert [t.name for t in g.outputs] == [y.name]

    def test_node_lookup(self):
        b = GraphBuilder("t")
        x = b.input("x", (4,))
        b.activation(x, "relu", name="act")
        g = b.build()
        assert g.node("act").name == "act"
        with pytest.raises(GraphError, match="no node named 'missing'"):
            g.node("missing")

    def test_node_lookup_finds_every_node(self):
        g = build_model("resnet18")
        assert all(g.node(op.name) is op for op in g)

    def test_tensor_produced_twice_rejected(self):
        g = Graph("t")
        t = TensorSpec("a", (1,), FP16)
        g.add(Input(name="n", inputs=(), output=t))
        with pytest.raises(GraphError, match="produced twice"):
            g.add(Input(name="m", inputs=(), output=t))

    @pytest.mark.parametrize("fault", ["duplicate", "unknown tensor",
                                       "produced twice"])
    def test_rejected_add_changes_nothing(self, fault):
        g = Graph("t")
        a = TensorSpec("a", (4,), FP16)
        g.add(Input(name="in", inputs=(), output=a))
        g.add(Reshape(name="r", inputs=(a,),
                      output=TensorSpec("b", (2, 2), FP16)))
        state = lambda: (list(g.nodes), dict(g._tensors),  # noqa: E731
                         dict(g._producers), dict(g._by_name))
        before = state()
        rejected = {
            "duplicate": Reshape(name="r", inputs=(a,),
                                 output=TensorSpec("c", (4,), FP16)),
            "unknown tensor": Reshape(
                name="s", inputs=(TensorSpec("ghost", (4,), FP16),),
                output=TensorSpec("c", (4,), FP16)),
            "produced twice": Reshape(name="s", inputs=(a,),
                                      output=TensorSpec("b", (4,), FP16)),
        }[fault]
        with pytest.raises(GraphError, match=fault):
            g.add(rejected)
        assert state() == before
        # The names the rejected op used are still free.
        g.add(Reshape(name="s", inputs=(a,),
                      output=TensorSpec("c", (4,), FP16)))
        assert g.node("s").output.name == "c"


class TestWorkloads:
    def test_conv_gemm_dims(self):
        b = GraphBuilder("t")
        x = b.input("img", (2, 56, 56, 64))
        b.conv2d(x, 128, kernel=3, padding=1, name="c")
        g = b.build()
        work = g.node("c").workload()
        gemm = work.gemms[0]
        assert (gemm.m, gemm.k, gemm.n) == (2 * 56 * 56, 9 * 64, 128)

    def test_depthwise_has_no_cube_work(self):
        b = GraphBuilder("t")
        x = b.input("img", (1, 56, 56, 32))
        b.depthwise_conv2d(x, kernel=3, padding=1, name="dw")
        work = b.build().node("dw").workload()
        assert work.macs == 0
        assert work.vector_elem_passes > 0

    def test_batch_matmul_counts_batches(self):
        b = GraphBuilder("t")
        q = b.input("q", (12, 128, 64))
        k = b.input("k", (12, 128, 64))
        b.batch_matmul(q, k, transpose_b=True, name="s")
        work = b.build().node("s").workload()
        assert work.gemms[0].count == 12
        assert work.macs == 12 * 128 * 64 * 128

    def test_grouped_workloads_merge(self):
        b = GraphBuilder("t")
        x = b.input("img", (1, 8, 8, 4))
        b.group("layer1")
        y = b.conv2d(x, 8, kernel=3, padding=1)
        b.relu(y)
        g = b.build()
        groups = g.grouped_workloads()
        assert len(groups) == 1
        name, work = groups[0]
        assert name == "layer1"
        assert work.macs > 0 and work.vector_elem_passes > 0

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_grouped_workloads_match_merged_chain(self, model):
        graph = build_model(model)
        assert graph.grouped_workloads() == _merged_chain(graph)

    @pytest.mark.parametrize("model", ["bert-base", "resnet50"])
    @pytest.mark.parametrize("optimizer", [True, False])
    def test_training_workloads_match_merged_chain(self, model, optimizer):
        graph = build_model(model)
        expected = []
        for group, fwd in graph.grouped_workloads():
            total = _merge(fwd, backward_workload(fwd), group)
            if optimizer:
                total = _merge(total, optimizer_workload(fwd), group)
            expected.append((group, total))
        assert training_workloads(graph, optimizer) == expected

    def test_grouped_workloads_fuse_byte_fields(self):
        """Weights add up, the input is the first op's, the output the
        last non-zero one's."""
        g = Graph("t")
        x = TensorSpec("x", (4,), FP16)
        g.add(Input(name="in", inputs=(), output=x))
        works = [OpWorkload(name="w0", gemms=(GemmWork(2, 3, 4),),
                            weight_bytes=5, input_bytes=7, output_bytes=11),
                 OpWorkload(name="w1", vector=(VectorWork(6),),
                            weight_bytes=13, input_bytes=17),
                 OpWorkload(name="w2", gemms=(GemmWork(8, 9, 10),),
                            vector=(VectorWork(3, 2),), output_bytes=19),
                 OpWorkload(name="w3", input_bytes=23)]
        for i, work in enumerate(works):
            g.add(_Fixed(name=f"op{i}", inputs=(x,),
                         output=TensorSpec(f"t{i}", (4,), FP16),
                         group="g" if i != 2 else "", work=work))
        grouped = g.grouped_workloads()
        assert grouped == _merged_chain(g)
        assert [name for name, _ in grouped] == ["g", "op2"]
        fused = grouped[0][1]
        assert (fused.weight_bytes, fused.input_bytes,
                fused.output_bytes) == (18, 7, 11)
        assert fused.gemms == works[0].gemms
        assert fused.vector == works[1].vector

    def test_reshape_element_check(self):
        src = TensorSpec("a", (2, 8), FP16)
        dst = TensorSpec("b", (4, 3), FP16)
        with pytest.raises(GraphError, match="mismatch"):
            Reshape(name="r", inputs=(src,), output=dst)
