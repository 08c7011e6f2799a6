"""Arena lowering is pinned instruction-for-instruction to the object oracle.

``REPRO_LOWERING=objects`` selects the original per-object emitters;
``arena`` (the default) the vectorized columnar ones.  These properties
assert the two produce byte-identical instruction streams — same classes,
same regions, same offsets, same tags — across dtypes, design points and
workload shapes, and that the columnar cost model prices every row
exactly like the per-instruction one.
"""

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import lower_gemm, lower_vector_work, lower_workload
from repro.compiler.lowering import GemmLayout, PostOp
from repro.config import ASCEND, ASCEND_MAX, ASCEND_TINY
from repro.config.core_configs import CORE_CONFIGS
from repro.core import CostModel
from repro.core.engine import schedule, schedule_summary
from repro.dtypes import FP16, FP32, INT4, INT8
from repro.errors import CompileError, IsaError
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.isa.arena import InstructionArena
from repro.isa.instructions import VectorOpcode
from repro.models.zoo import build_model

from tests.core.oracle import schedule_fixpoint


@contextmanager
def _mode(mode):
    old = os.environ.get("REPRO_LOWERING")
    os.environ["REPRO_LOWERING"] = mode
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_LOWERING", None)
        else:
            os.environ["REPRO_LOWERING"] = old


def _both(fn):
    """Run ``fn`` under both lowering modes; errors count as outcomes."""
    results = []
    for mode in ("objects", "arena"):
        with _mode(mode):
            try:
                results.append(fn())
            except (IsaError, CompileError) as exc:
                results.append(type(exc))
    return results


def _assert_identical(obj, ar):
    if isinstance(obj, type):  # both must fail with the same error class
        assert ar is obj
        return
    assert not isinstance(ar, type), f"arena path raised {ar}"
    assert len(obj) == len(ar)
    assert obj.instructions == ar.instructions


_CONFIGS = list(CORE_CONFIGS.values())
_DTYPES = (FP16, FP32, INT8, INT4)


class TestGemmEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 300),
        k=st.integers(1, 600),
        n=st.integers(1, 300),
        config=st.sampled_from(_CONFIGS),
        dtype=st.sampled_from(_DTYPES),
    )
    def test_perf_schedule(self, m, k, n, config, dtype):
        outcomes = _both(lambda: lower_gemm(m, k, n, config, dtype=dtype))
        _assert_identical(*outcomes)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 200),
        k=st.integers(1, 400),
        n=st.integers(1, 200),
        config=st.sampled_from([ASCEND_TINY, ASCEND, ASCEND_MAX]),
        bias=st.booleans(),
        relu=st.booleans(),
    )
    def test_functional_layout(self, m, k, n, config, bias, relu):
        layout = GemmLayout(0, 4 << 20, 8 << 20,
                            bias_offset=(12 << 20) if bias else None)
        post = [PostOp(VectorOpcode.RELU)] if relu else []
        outcomes = _both(lambda: lower_gemm(
            m, k, n, config, layout=layout, post_ops=post, tag="fn"))
        _assert_identical(*outcomes)

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(8, 256),
        k=st.integers(8, 256),
        n=st.integers(8, 256),
        scale=st.sampled_from([0.25, 0.5, 1.0, 1.75]),
    )
    def test_a_bytes_scale(self, m, k, n, scale):
        outcomes = _both(lambda: lower_gemm(
            m, k, n, ASCEND, a_bytes_scale=scale))
        _assert_identical(*outcomes)

    def test_arena_path_actually_engaged(self):
        with _mode("arena"):
            prog = lower_gemm(96, 160, 64, ASCEND_MAX)
        assert prog._arena is not None
        with _mode("objects"):
            prog = lower_gemm(96, 160, 64, ASCEND_MAX)
        assert prog._arena is None

    def test_exotic_variants_fall_back_to_objects(self):
        with _mode("arena"):
            sparse = lower_gemm(64, 64, 64, ASCEND_MAX, weight_density=0.3)
            resident = lower_gemm(64, 64, 64, ASCEND_MAX, b_resident=True)
        assert sparse._arena is None
        assert resident._arena is None


class TestVectorEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        elems=st.one_of(st.just(0), st.integers(1, 3_000_000)),
        passes=st.integers(1, 3),
        dtype=st.sampled_from(_DTYPES),
        config=st.sampled_from(_CONFIGS),
        load=st.booleans(),
        store=st.booleans(),
    )
    def test_streaming(self, elems, passes, dtype, config, load, store):
        work = VectorWork(elems=elems, passes=passes, dtype=dtype)
        outcomes = _both(lambda: lower_vector_work(
            work, config, load_input=load, store_output=store))
        _assert_identical(*outcomes)


class TestWorkloadEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        gemm_count=st.integers(1, 3),
        reps=st.integers(1, 4),
        vec_elems=st.integers(0, 500_000),
        config=st.sampled_from([ASCEND, ASCEND_MAX]),
    )
    def test_mixed_workload(self, gemm_count, reps, vec_elems, config):
        work = OpWorkload(
            name="mix",
            gemms=tuple(GemmWork(m=32 * (i + 1), k=96, n=48, count=reps)
                        for i in range(gemm_count)),
            vector=(VectorWork(elems=vec_elems),) if vec_elems else (),
        )
        outcomes = _both(lambda: lower_workload(work, config))
        _assert_identical(*outcomes)

    @pytest.mark.parametrize("model", ["gesture", "pointnet"])
    def test_conv_and_mlp_models(self, model):
        graph = build_model(model)
        for group, work in graph.grouped_workloads():
            outcomes = _both(lambda: lower_workload(work, ASCEND))
            _assert_identical(*outcomes)


class TestCostColumns:
    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(1, 300),
        k=st.integers(1, 500),
        n=st.integers(1, 300),
        config=st.sampled_from(_CONFIGS),
        dtype=st.sampled_from(_DTYPES),
    )
    def test_matches_per_instruction_costs(self, m, k, n, config, dtype):
        if not config.supports_dtype(dtype):
            return
        with _mode("arena"):
            try:
                prog = lower_gemm(m, k, n, config, dtype=dtype)
            except (IsaError, CompileError):
                return
        costs = CostModel(config)
        arena = prog._arena
        assert arena is not None
        per_row = costs.cost_columns(arena)
        assert per_row.tolist() == [costs.cost(i) for i in prog.instructions]

    def test_object_built_arena_prices_identically(self):
        with _mode("objects"):
            prog = lower_gemm(80, 224, 96, ASCEND_MAX)
        arena = InstructionArena.from_instructions(prog.instructions)
        costs = CostModel(ASCEND_MAX)
        assert costs.cost_columns(arena).tolist() \
            == [costs.cost(i) for i in prog.instructions]


class TestSchedulerEquivalence:
    """The drain produces the same trace over programs lowered either
    way, and both match the fixpoint oracle."""

    def _programs(self):
        work = OpWorkload(
            name="sched",
            gemms=(GemmWork(m=96, k=256, n=64, count=2),),
            vector=(VectorWork(elems=400_000),),
        )
        with _mode("objects"):
            p_obj = lower_workload(work, ASCEND_MAX)
        with _mode("arena"):
            p_ar = lower_workload(work, ASCEND_MAX)
        return p_obj, p_ar

    def test_traces_bit_identical(self):
        p_obj, p_ar = self._programs()
        costs = CostModel(ASCEND_MAX)
        t_obj = schedule(p_obj, costs)
        t_ar = schedule(p_ar, costs)
        t_fix = schedule_fixpoint(p_obj, costs)
        for a, b in ((t_obj, t_ar), (t_obj, t_fix)):
            assert len(a.events) == len(b.events)
            for ea, eb in zip(a.events, b.events):
                assert (ea.index, ea.pipe, ea.start, ea.end) \
                    == (eb.index, eb.pipe, eb.start, eb.end)

    def test_summaries_identical(self):
        p_obj, p_ar = self._programs()
        costs = CostModel(ASCEND_MAX)
        assert schedule_summary(p_obj, costs) == schedule_summary(p_ar, costs)
