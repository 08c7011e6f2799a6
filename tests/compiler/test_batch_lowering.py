"""A lowering batch lowers exactly as its workloads lowered one at a time.

``lower_workload`` takes a compile's missed layers as one batch: it
walks their requests over the memo in order, prices every missed GEMM
shape in one tiling pass and emits every missed GEMM and vector stream
in one pass each.  Each program must still be what lowering its
workloads one at a time makes: the same parts (a memo hit is the
earlier arena, retagged, and adjacent identical arenas fold into one
repeat block), the same memo entries in the same order, evictions
included, the same hit count, and the same first error.  The one-at-a-
time walk is :func:`_lower_one_by_one`, the per-workload walk lowering
ran before it was batched, over ``lower_gemm`` and ``lower_vector_work``
(batches of one, pinned to the object-built emitters by
test_lowering_arena.py).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import models
from repro.compiler import GraphEngine, lowering, tiling
from repro.compiler.lowering import (
    clear_lowering_memo,
    lower_gemm,
    lower_vector_work,
    lower_workload,
    lowering_stats,
    reset_lowering_stats,
)
from repro.config import ASCEND, ASCEND_TINY, core_config_by_name
from repro.config.core_configs import ASCEND_LITE, CORE_CONFIGS, CubeShape
from repro.dtypes import FP16, FP32, INT4, INT8
from repro.errors import CompileError, IsaError
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.isa.arena import _COLUMN_NAMES
from repro.isa.program import Program

from tests.compiler import tiling_oracle
from tests.scripts import load_script

_CONFIGS = tuple(CORE_CONFIGS.values())
_POOL = load_script("perfbench/workloads.py").COMPILE_POOL

# The ad-hoc core of test_tiling_equivalence.py with an L1 too small to
# stage a native fp16 k slice: 64x4096x64 fp16 has no legal tiling, and
# an int4 GEMM with a short K has one.
_STARVED = dataclasses.replace(
    ASCEND_LITE, name="ascend-lite-starved", cube=CubeShape(8, 16, 32),
    cube_dtypes=(FP16, INT8, INT4, FP32), l1_bytes=2 * 1024,
    l0a_bytes=24 * 1024, l0b_bytes=12 * 1024, l0c_bytes=48 * 1024,
    ub_bytes=40 * 1024)


@pytest.fixture(autouse=True)
def _empty_memo():
    clear_lowering_memo()
    yield
    clear_lowering_memo()


def _lower_one_by_one(works, config, scales):
    """Each workload lowered alone, in order, through the memo: its entry,
    else each GEMM and vector stream as a batch of one, adjacent
    identical arenas folded."""
    programs = []
    for work, scale in zip(works, scales):
        key = ("workload", config, work.gemms, work.vector, scale)
        parts = lowering._ARENA_MEMO.get(key)
        if parts is not None:
            lowering._LOWERING_STATS["memo_hits"] += 1
        else:
            subs = [(lower_gemm(g.m, g.k, g.n, config, dtype=g.dtype,
                                tag=work.name, a_bytes_scale=scale)._arena,
                     g.count) for g in work.gemms]
            subs += [(lower_vector_work(v, config, tag=work.name)._arena, 1)
                     for v in work.vector]
            folded = []
            for arena, count in subs:
                if folded and arena is folded[-1][0]:
                    folded[-1][1] += count
                else:
                    folded.append([arena, count])
            parts = tuple(tuple(part) for part in folded)
            lowering._memo_put(key, parts)
        programs.append(Program.from_parts(
            [(arena.retagged(work.name), reps) for arena, reps in parts],
            name=f"{work.name}_{config.name}"))
    return programs


def _assert_arenas_equal(got, want, repeats=True):
    assert got.n == want.n
    assert got.tags == want.tags
    assert got.exact == want.exact
    if repeats:
        assert got.repeats == want.repeats
    for col in _COLUMN_NAMES:
        x, y = getattr(got, col), getattr(want, col)
        assert x.dtype == y.dtype, col
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), col


def _identities(programs):
    """Each part's arena as the index of its first appearance: which
    parts share one arena object."""
    seen = {}
    return [[seen.setdefault(id(arena), len(seen)) for arena, _ in p.parts]
            for p in programs]


def _outcome(lower, *args):
    """``(programs, memo keys, memo hits)``, or the error's type and
    message."""
    reset_lowering_stats()
    try:
        programs = lower(*args)
    except (CompileError, IsaError) as exc:
        return type(exc), str(exc)
    return programs, list(lowering._ARENA_MEMO), lowering_stats()["memo_hits"]


def _assert_batch_matches(works, config, scales, prefix=(), cap=None):
    """The batch and the one-at-a-time walk agree, from the memo that
    ``prefix`` (workloads lowered first) leaves, under memo ``cap``."""
    saved = lowering._ARENA_MEMO_CAP
    if cap is not None:
        lowering._ARENA_MEMO_CAP = cap
    try:
        outcomes = []
        for lower in (_lower_one_by_one, lower_workload):
            clear_lowering_memo()
            lower_workload(list(prefix), config)
            outcomes.append(_outcome(lower, works, config, scales))
    finally:
        lowering._ARENA_MEMO_CAP = saved
    want, got = outcomes
    if isinstance(want[0], type):
        assert got == want
        return None
    (want_programs, want_keys, want_hits) = want
    (got_programs, got_keys, got_hits) = got
    assert got_keys == want_keys
    assert got_hits == want_hits
    assert _identities(got_programs) == _identities(want_programs)
    for g, w in zip(got_programs, want_programs):
        assert g.name == w.name
        assert [reps for _, reps in g.parts] == [reps for _, reps in w.parts]
        for (ga, _), (wa, _) in zip(g.parts, w.parts):
            _assert_arenas_equal(ga, wa)
    return got_programs


@st.composite
def _batches(draw):
    """A config, a batch of 1-12 workloads drawn from a few distinct ones
    (repeats across the batch) built from a few GEMM and vector shapes
    (repeats within and across workloads), a scale per workload, and a
    prefix lowered first."""
    config = draw(st.sampled_from(_CONFIGS))
    dtypes = [dt for dt in (FP16, INT8, FP32) if config.supports_dtype(dt)]
    gemm_pool = draw(st.lists(st.builds(
        GemmWork, m=st.integers(1, 300), k=st.integers(1, 600),
        n=st.integers(1, 300), dtype=st.sampled_from(dtypes),
        count=st.integers(1, 3)), min_size=1, max_size=4))
    vector_pool = draw(st.lists(st.builds(
        VectorWork, elems=st.one_of(st.just(0), st.integers(1, 400_000)),
        passes=st.integers(1, 3),
        dtype=st.sampled_from((FP16, FP32, INT8, INT4))),
        min_size=1, max_size=3))
    distinct = draw(st.lists(st.builds(
        OpWorkload, name=st.sampled_from(["a", "b", "layer_7", ""]),
        gemms=st.lists(st.sampled_from(gemm_pool), max_size=3).map(tuple),
        vector=st.lists(st.sampled_from(vector_pool), max_size=2).map(tuple)),
        min_size=1, max_size=6))
    works = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=12))
    scales = [draw(st.sampled_from([1.0, 0.5, 0.25, 1 / 9, 0.75]))
              for _ in works]
    prefix = draw(st.lists(st.sampled_from(distinct), max_size=3))
    return config, works, scales, prefix


class TestBatchEqualsOneByOne:
    @given(_batches(), st.sampled_from([None, None, 3, 8]))
    @settings(max_examples=60, deadline=None)
    def test_random_batches(self, batch, cap):
        config, works, scales, prefix = batch
        _assert_batch_matches(works, config, scales, prefix, cap)

    @given(_batches())
    @settings(max_examples=25, deadline=None)
    def test_each_program_equals_its_workload_alone(self, batch):
        """Alone, a workload's parts can fold differently (a memo hit
        retagged from another layer is a fresh object each time), so its
        rows are compared concatenated, without repeat metadata."""
        config, works, scales, _ = batch
        programs = lower_workload(works, config, scales)
        for work, scale, program in zip(works, scales, programs):
            clear_lowering_memo()
            (alone,) = lower_workload([work], config, [scale])
            assert program.name == alone.name
            _assert_arenas_equal(program.arena, alone.arena, repeats=False)

    def test_repeated_key_yields_the_same_arena(self):
        gemm = GemmWork(m=96, k=64, n=80)
        vec = VectorWork(elems=5000)
        works = [OpWorkload(name="a", gemms=(gemm, gemm), vector=(vec,)),
                 OpWorkload(name="a", gemms=(gemm,), vector=(vec, vec)),
                 OpWorkload(name="b", gemms=(gemm,))]
        programs = _assert_batch_matches(works, ASCEND, [1.0, 0.5, 1.0])
        (first, reps), (vector, _) = programs[0].parts
        assert reps == 2  # one key twice in a row: one arena, folded
        # The same tag: the memo's own arena, folded with its repeat.
        assert programs[1].parts[1] == (vector, 2)
        # "b" repeats "a"'s GEMM key: the same columns, retagged.
        assert programs[2].parts[0][0].kind is first.kind
        assert programs[2].parts[0][0].tags == ["", "b"]

    def test_compile_pool_misses(self):
        """Every perfbench cold-pool compile's misses, as one batch."""
        from repro.compiler import cache
        from repro.compiler.graph_engine import _im2col_scales

        for model, core in _POOL:
            graph = models.build_model(model)
            config = core_config_by_name(core)
            scales = _im2col_scales(graph)
            misses = {}
            for group, work in graph.grouped_workloads():
                scale = scales.get(group, 1.0)
                misses.setdefault(cache.content_key(config, work, scale),
                                  (work, scale))
            works, miss_scales = zip(*misses.values())
            _assert_batch_matches(list(works), config, list(miss_scales))


class TestErrorOrder:
    """A batch raises what lowering its requests in order raises first,
    and memoizes nothing."""

    _NO_TILING = OpWorkload(name="big", gemms=(GemmWork(64, 4096, 64),))
    _INT4 = OpWorkload(name="q", gemms=(GemmWork(32, 40, 32, dtype=INT4),))
    _FINE = OpWorkload(name="ok", gemms=(GemmWork(32, 8, 32),),
                       vector=(VectorWork(elems=100),))

    @pytest.mark.parametrize("order,error", [
        ((_FINE, _INT4, _NO_TILING), IsaError),
        ((_FINE, _NO_TILING, _INT4), CompileError),
        ((_NO_TILING, _FINE), CompileError),
        ((_INT4,), IsaError),
    ])
    def test_no_legal_tiling_and_int4(self, order, error):
        outcome = _assert_batch_matches(list(order), _STARVED,
                                        [1.0] * len(order))
        assert outcome is None
        clear_lowering_memo()
        reset_lowering_stats()
        with pytest.raises(error):
            lower_workload(list(order), _STARVED)
        assert not lowering._ARENA_MEMO
        assert lowering_stats()["memo_hits"] == 0

    def test_unsupported_dtype_and_bad_scale(self):
        fp16 = OpWorkload(name="h", gemms=(GemmWork(32, 32, 32),))
        int8 = OpWorkload(name="i", gemms=(GemmWork(32, 32, 32, dtype=INT8),))
        _assert_batch_matches([int8, fp16], ASCEND_TINY, [1.0, 1.0])
        _assert_batch_matches([int8, int8], ASCEND_TINY, [1.0, 1.5])
        _assert_batch_matches([fp16, int8], ASCEND_TINY, [1.0, 0.0])
        with pytest.raises(IsaError, match="^ascend-tiny cube does not "
                                           "support fp16$"):
            lower_workload([int8, fp16], ASCEND_TINY)
        with pytest.raises(CompileError, match="a_bytes_scale"):
            lower_workload([int8, int8], ASCEND_TINY, [1.0, 1.5])


def _shapes(config):
    dtypes = [dt for dt in (FP16, INT8, INT4, FP32)
              if config.supports_dtype(dt)]
    return st.lists(st.tuples(st.integers(1, 3000), st.integers(1, 3000),
                              st.integers(1, 3000), st.sampled_from(dtypes)),
                    min_size=1, max_size=8)


def _assert_table_matches(shapes, config):
    """Each shape's rows of the batch table are its own table's, and the
    scalar search's, row for row."""
    space = tiling.tiling_spaces(shapes, config)
    best = space.cheapest()
    for i, (m, k, n, dtype) in enumerate(shapes):
        rows = slice(space.bounds[i], space.bounds[i + 1])
        alone = tiling.tiling_space(m, k, n, config, dtype)
        for col in ("tm", "tk", "tn", "k_stage", "cycles"):
            assert getattr(space, col)[rows].tolist() \
                == getattr(alone, col).tolist(), (i, col)
        assert (space.shape[rows] == i).all()
        want = tiling_oracle.legal_tilings(m, k, n, config, dtype)
        assert alone.tilings() == want
        assert space.cycles[rows].tolist() == [
            tiling_oracle.estimate_gemm_cycles(m, k, n, t, config, dtype)
            for t in want]
        assert best[i] == tiling_oracle.choose_tiling(m, k, n, config, dtype)


class TestTilingTable:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_batch_matches_each_shape_alone(self, data):
        config = data.draw(st.sampled_from(_CONFIGS))
        _assert_table_matches(data.draw(_shapes(config)), config)

    def test_cold_pool_shapes_as_one_batch(self):
        by_core = {}
        for model, core in _POOL:
            for _, work in models.build_model(model).grouped_workloads():
                for g in work.gemms:
                    by_core.setdefault(core, {})[(g.m, g.k, g.n, g.dtype)] = 1
        assert sum(map(len, by_core.values())) == 190
        for core, shapes in by_core.items():
            _assert_table_matches(list(shapes), core_config_by_name(core))

    def test_first_failing_shape_raises(self):
        with pytest.raises(CompileError, match="^no legal tiling for "
                                               "64x4096x64 fp16 on "
                                               "ascend-lite-starved$"):
            tiling.tiling_spaces([(64, 4, 64, FP16), (64, 4096, 64, FP16),
                                  (64, 8000, 64, FP16)], _STARVED)
        with pytest.raises(IsaError, match="does not support fp16"):
            tiling.tiling_spaces([(8, 8, 8, INT8), (8, 8, 8, FP16),
                                  (64, 4096, 64, INT8)], ASCEND_TINY)
        with pytest.raises(CompileError, match="64x4096x64 fp16"):
            tiling.tiling_spaces([(64, 4096, 64, FP16), (8, 8, 8, INT8)],
                                 dataclasses.replace(_STARVED,
                                                     cube_dtypes=(FP16,)))


def test_cold_compile_lowers_in_one_pass(monkeypatch, tmp_path):
    """A cold resnet50@ascend compile prices its 21 distinct GEMM shapes
    in one tiling pass (27 searches, one per missed GEMM request, before
    lowering was batched) and emits its GEMMs and vector streams in one
    pass each."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(GraphEngine, "_GLOBAL_CACHE", {})
    calls = {"tiling": [], "gemm": 0, "vector": 0}
    spaces = lowering.tiling_spaces
    gemm_pass = lowering.lower_gemm_arena
    vector_pass = lowering.lower_vector_arena

    def tiling_spy(shapes, config):
        calls["tiling"].append(len(shapes))
        return spaces(shapes, config)

    def gemm_spy(*args, **kwargs):
        calls["gemm"] += 1
        return gemm_pass(*args, **kwargs)

    def vector_spy(*args, **kwargs):
        calls["vector"] += 1
        return vector_pass(*args, **kwargs)

    monkeypatch.setattr(lowering, "tiling_spaces", tiling_spy)
    monkeypatch.setattr(lowering, "lower_gemm_arena", gemm_spy)
    monkeypatch.setattr(lowering, "lower_vector_arena", vector_spy)
    compiled = GraphEngine(ASCEND).compile_graph(models.build_model("resnet50"))
    assert compiled.total_cycles == 1820898
    assert calls == {"tiling": [21], "gemm": 1, "vector": 1}
