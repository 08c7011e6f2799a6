"""Production lowering is pinned instruction-for-instruction to the oracle.

Every program ``lower_gemm``, ``lower_vector_work`` and ``lower_workload``
return is arena-built by :mod:`repro.compiler.arena_lowering`; the
per-object emitters in :mod:`tests.compiler.lowering_oracle` walk the
same schedules in nested loops.  These properties assert the two produce
identical instruction streams — same classes, same regions, same
offsets, same tags — across dtypes, design points, workload shapes and
the sparse and weight-stationary variants, and that the columnar cost
model prices every row exactly like the per-instruction one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import lowering
from repro.compiler.lowering import GemmLayout, PostOp
from repro.config import ASCEND, ASCEND_MAX, ASCEND_TINY
from repro.config.core_configs import CORE_CONFIGS
from repro.core import CostModel
from repro.core.engine import schedule, schedule_summary
from repro.dtypes import FP16, FP32, INT4, INT8
from repro.errors import CompileError, IsaError
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.isa.arena import InstructionArena
from repro.isa.channels import EV_B_RESIDENT_FREE
from repro.isa.instructions import DecompressInstr, SetFlag, VectorOpcode
from repro.models.zoo import build_model

from tests.compiler import lowering_oracle as oracle
from tests.core import cost_oracle
from tests.core.oracle import schedule_fixpoint


def _outcome(lower, *args, **kwargs):
    """A lowered program, or the class of the error lowering raised."""
    try:
        return lower(*args, **kwargs)
    except (IsaError, CompileError) as exc:
        return type(exc)


def _lower_one(work, config):
    """Production ``lower_workload`` on a batch of one workload."""
    (program,) = lowering.lower_workload([work], config)
    return program


def _check(entry, *args, **kwargs):
    """``lowering.<entry>`` matches ``oracle.<entry>`` row for row (or
    both fail with the same error class); returns the production program.
    ``lower_workload`` takes a batch in production and one workload in
    the oracle, so it is checked on a batch of one."""
    want = _outcome(getattr(oracle, entry), *args, **kwargs)
    produce = (_lower_one if entry == "lower_workload"
               else getattr(lowering, entry))
    got = _outcome(produce, *args, **kwargs)
    if isinstance(want, type):
        assert got is want
        return None
    assert not isinstance(got, type), f"production lowering raised {got}"
    assert got._instructions is None  # built from arenas
    assert len(got) == len(want)
    assert got.instructions == want.instructions
    return got


def _resident_columns(program):
    return sum(isinstance(i, SetFlag) and i.event_id == EV_B_RESIDENT_FREE
               for i in program)


_CONFIGS = list(CORE_CONFIGS.values())
_DTYPES = (FP16, FP32, INT8, INT4)
# Densities from fully dense to very sparse, the ablation's included.
_DENSITIES = st.one_of(st.just(1.0), st.sampled_from([0.75, 0.5, 0.25, 0.1]),
                       st.floats(0.0, 0.1), st.floats(0.0, 1.0))


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
        _check("lower_gemm", m, k, n, config, dtype=dtype)

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
        _check("lower_gemm", m, k, n, config, layout=layout, post_ops=post,
               tag="fn")

    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(8, 256),
        k=st.integers(8, 256),
        n=st.integers(8, 256),
        scale=st.sampled_from([0.25, 0.5, 1.0, 1.75]),
        config=st.sampled_from([ASCEND, ASCEND_MAX]),
        resident=st.booleans(),
    )
    def test_a_bytes_scale(self, m, k, n, scale, config, resident):
        _check("lower_gemm", m, k, n, config, a_bytes_scale=scale,
               b_resident=resident)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 300),
        k=st.integers(1, 700),
        n=st.integers(1, 300),
        config=st.sampled_from(_CONFIGS),
        dtype=st.sampled_from(_DTYPES),
        density=_DENSITIES,
    )
    def test_weight_density(self, m, k, n, config, dtype, density):
        _check("lower_gemm", m, k, n, config, dtype=dtype,
               weight_density=density, tag="zvc")

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 600),
        k=st.integers(1, 2048),
        n=st.integers(1, 300),
        config=st.sampled_from(_CONFIGS),
        dtype=st.sampled_from(_DTYPES),
    )
    def test_b_resident(self, m, k, n, config, dtype):
        _check("lower_gemm", m, k, n, config, dtype=dtype, b_resident=True,
               tag="ws")

    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(1, 300),
        k=st.integers(1, 400),
        n=st.integers(1, 200),
        config=st.sampled_from([ASCEND_TINY, ASCEND, ASCEND_MAX]),
        bias=st.booleans(),
        relu=st.booleans(),
    )
    def test_b_resident_functional(self, m, k, n, config, bias, relu):
        layout = GemmLayout(0, 4 << 20, 8 << 20,
                            bias_offset=(12 << 20) if bias else None)
        post = ([PostOp(VectorOpcode.RELU), PostOp(VectorOpcode.MULS, 0.5)]
                if relu else [])
        _check("lower_gemm", m, k, n, config, layout=layout, post_ops=post,
               b_resident=True, tag="ws")

    def test_b_resident_fits_and_falls_back(self):
        # K=512 fits L0B: the schedule keeps B resident per column.
        fits = _check("lower_gemm", 1024, 512, 64, ASCEND_MAX, tag="c",
                      b_resident=True)
        assert _resident_columns(fits) >= 1
        # K=4096: even the narrowest strip exceeds L0B, so the request
        # lowers to the default schedule.
        falls_back = _check("lower_gemm", 128, 4096, 256, ASCEND_MAX,
                            tag="f", b_resident=True)
        assert _resident_columns(falls_back) == 0
        dense = lowering.lower_gemm(128, 4096, 256, ASCEND_MAX, tag="f")
        assert falls_back.instructions == dense.instructions

    def test_ablation_shapes(self):
        for density in (None, 0.75, 0.5, 0.25, 0.1):
            sparse = _check("lower_gemm", 512, 2048, 512, ASCEND_MAX,
                            tag="fc", weight_density=density)
            assert any(isinstance(i, DecompressInstr)
                       for i in sparse) == (density is not None)
        for m, k, n in ((12544, 576, 64), (3136, 512, 128), (12544, 256, 64)):
            _check("lower_gemm", m, k, n, ASCEND_MAX, tag="ws",
                   b_resident=True)

    def test_arena_path_actually_engaged(self):
        layout = GemmLayout(0, 1 << 20, 1 << 21, bias_offset=3 << 20)
        programs = [
            lowering.lower_gemm(96, 160, 64, ASCEND_MAX),
            lowering.lower_gemm(64, 64, 64, ASCEND_MAX, weight_density=0.3),
            lowering.lower_gemm(64, 64, 64, ASCEND_MAX, b_resident=True),
            lowering.lower_gemm(128, 4096, 256, ASCEND_MAX, b_resident=True),
            lowering.lower_gemm(64, 64, 64, ASCEND_MAX, layout=layout,
                                b_resident=True),
            lowering.lower_vector_work(VectorWork(elems=5000), ASCEND_MAX),
            *lowering.lower_workload(
                [OpWorkload(name="w", gemms=(GemmWork(32, 32, 32),),
                            vector=(VectorWork(elems=100),))], ASCEND_MAX),
        ]
        assert all(p._instructions is None for p in programs)


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
        _check("lower_vector_work", work, config, load_input=load,
               store_output=store)


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
        _check("lower_workload", work, config)

    @pytest.mark.parametrize("model", ["gesture", "pointnet"])
    def test_conv_and_mlp_models(self, model):
        graph = build_model(model)
        for group, work in graph.grouped_workloads():
            _check("lower_workload", work, ASCEND)


class TestCostColumns:
    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(1, 300),
        k=st.integers(1, 500),
        n=st.integers(1, 300),
        config=st.sampled_from(_CONFIGS),
        dtype=st.sampled_from(_DTYPES),
        variant=st.sampled_from(["dense", "sparse", "resident"]),
    )
    def test_matches_per_instruction_costs(self, m, k, n, config, dtype,
                                           variant):
        if not config.supports_dtype(dtype):
            return
        kwargs = {"sparse": {"weight_density": 0.3},
                  "resident": {"b_resident": True}}.get(variant, {})
        try:
            prog = lowering.lower_gemm(m, k, n, config, dtype=dtype, **kwargs)
        except (IsaError, CompileError):
            return
        costs = CostModel(config)
        per_row = costs.cost_columns(prog._arena)
        assert per_row.tolist() == [cost_oracle.cost(costs, i)
                                    for i in prog.instructions]

    def test_object_built_arena_prices_identically(self):
        prog = oracle.lower_gemm(80, 224, 96, ASCEND_MAX)
        arena = InstructionArena.from_instructions(prog.instructions)
        costs = CostModel(ASCEND_MAX)
        assert costs.cost_columns(arena).tolist() \
            == [cost_oracle.cost(costs, i) for i in prog.instructions]


class TestSchedulerEquivalence:
    """The drain produces the same trace over the oracle's object-built
    program and the production arena, and both match the fixpoint
    oracle."""

    def _programs(self):
        work = OpWorkload(
            name="sched",
            gemms=(GemmWork(m=96, k=256, n=64, count=2),),
            vector=(VectorWork(elems=400_000),),
        )
        return (oracle.lower_workload(work, ASCEND_MAX),
                _lower_one(work, ASCEND_MAX))

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
        assert schedule_summary([p_obj], costs) \
            == schedule_summary([p_ar], costs)
