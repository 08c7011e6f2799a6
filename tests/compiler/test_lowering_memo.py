"""Lowering memoization must be a pure speedup: identical programs out.

The arena emitters memoize per-(structure, config) and retag hits via
zero-copy column sharing; these tests pin that a memo hit is
instruction-for-instruction identical to a fresh lowering (one made
right after ``clear_lowering_memo()``), and that the dense, sparse and
weight-stationary variants of one shape never share a memo entry.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler import lowering
from repro.compiler.lowering import (
    clear_lowering_memo,
    lower_gemm,
    lower_vector_work,
    lower_workload,
    lowering_stats,
    reset_lowering_stats,
)
from repro.compiler.tiling import choose_tiling, tiling_spaces
from repro.config import ASCEND_MAX
from repro.config.core_configs import CORE_CONFIGS
from repro.dtypes import FP16, INT8, INT32
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.isa.arena import _COLUMN_NAMES

from tests.compiler import lowering_oracle as oracle

# Only design points whose cube speaks fp16 — the dtype these tests
# lower with (ascend-tiny is int-only, for example).
_CONFIGS = [c for c in CORE_CONFIGS.values() if c.supports_dtype(FP16)]


@pytest.fixture(autouse=True)
def _empty_memo():
    clear_lowering_memo()
    yield
    clear_lowering_memo()


def _fresh(lower, *args, **kwargs):
    """Lower on an empty memo, so nothing is served from an earlier call."""
    clear_lowering_memo()
    return lower(*args, **kwargs)


def _columns_identical(a, b):
    ar, br = a.arena, b.arena
    assert ar is not None and br is not None
    assert ar.n == br.n
    assert ar.tags == br.tags
    for col in _COLUMN_NAMES:
        x, y = getattr(ar, col), getattr(br, col)
        if x.dtype.kind == "f":
            assert np.array_equal(x, y, equal_nan=True), col
        else:
            assert np.array_equal(x, y), col
    assert a.instructions == b.instructions


class TestMemoEquivalence:
    @pytest.mark.parametrize("config", _CONFIGS,
                             ids=[c.name for c in _CONFIGS])
    def test_gemm_memo_identical(self, config):
        ref = [_fresh(lower_gemm, 96, 64, 80, config, tag="t")
               for _ in range(3)]
        clear_lowering_memo()
        reset_lowering_stats()
        out = [lower_gemm(96, 64, 80, config, tag="t") for _ in range(3)]
        assert lowering_stats()["memo_hits"] == 2
        for a, b in zip(ref, out):
            _columns_identical(a, b)
        # Memo hits with the same tag share one arena object outright.
        assert out[1]._arena is out[2]._arena

    def test_int8_and_retag(self):
        config = _CONFIGS[0]
        first = lower_gemm(64, 64, 64, config, dtype=INT8,
                           out_dtype=INT32, tag="alpha")
        second = lower_gemm(64, 64, 64, config, dtype=INT8,
                            out_dtype=INT32, tag="beta")
        fresh = _fresh(lower_gemm, 64, 64, 64, config, dtype=INT8,
                       out_dtype=INT32, tag="beta")
        assert second._arena.kind is first._arena.kind  # shared columns
        _columns_identical(second, fresh)

    def test_vector_memo_identical(self):
        config = _CONFIGS[0]
        work = VectorWork(elems=4096, passes=2, dtype=FP16)
        ref = _fresh(lower_vector_work, work, config, tag="v")
        clear_lowering_memo()
        lower_vector_work(work, config, tag="x")
        hit = lower_vector_work(work, config, tag="v")
        _columns_identical(ref, hit)

    def test_workload_memo_identical_across_names(self):
        config = _CONFIGS[0]
        base = dict(gemms=(GemmWork(m=96, k=96, n=96, dtype=FP16, count=3),),
                    vector=(VectorWork(elems=2048, passes=1, dtype=FP16),))
        w1 = OpWorkload(name="layer_0", **base)
        w2 = OpWorkload(name="layer_7", **base)
        (ref,) = _fresh(lower_workload, [w2], config)
        clear_lowering_memo()
        lower_workload([w1], config)
        (hit,) = lower_workload([w2], config)
        # Name differs (tag differs) but the structure memo hits and the
        # retagged result is identical to the fresh lowering.
        _columns_identical(ref, hit)

    def test_gemm_variants_keep_separate_entries(self):
        # One shape and one explicit tiling for all three variants, so
        # only weight_density and b_resident tell the memo keys apart.
        m, k, n = 96, 64, 80
        tiling = choose_tiling(m, k, n, ASCEND_MAX)
        variants = [{}, {"weight_density": 0.25}, {"b_resident": True}]
        expected = [oracle.lower_gemm(m, k, n, ASCEND_MAX, tag="v",
                                      tiling=tiling, **kw)
                    for kw in variants]
        # The resident schedule engages at this tiling (B fits L0B).
        assert expected[2].instructions != expected[0].instructions
        for _ in range(2):  # the second pass is served from a warm memo
            for kw, want in zip(variants, expected):
                got = lower_gemm(m, k, n, ASCEND_MAX, tag="v", tiling=tiling,
                                 **kw)
                assert got.instructions == want.instructions, kw

    def test_repeated_request_runs_no_tiling_search(self, monkeypatch):
        """The GEMM memo is keyed by the request (the caller's ``tiling``
        and ``b_resident``), so a repeat neither searches the tiling
        space nor resolves residency, on any design point."""
        searches = []

        def spy(*args, **kwargs):
            searches.append(args)
            return tiling_spaces(*args, **kwargs)

        monkeypatch.setattr(lowering, "tiling_spaces", spy)
        adhoc = dataclasses.replace(ASCEND_MAX, name="adhoc")
        for config in (ASCEND_MAX, adhoc):
            for kw in ({}, {"b_resident": True}):
                first = lower_gemm(96, 64, 80, config, tag="a", **kw)
                searched = len(searches)
                again = lower_gemm(96, 64, 80, config, tag="b", **kw)
                assert len(searches) == searched, (config.name, kw)
                assert again._arena.kind is first._arena.kind
