"""The tiling table is pinned, cost for cost, to the scalar search.

Production builds and prices the whole legal mapping space of a GEMM in
one numpy pass (:func:`repro.compiler.tiling.tiling_space`); the oracle
in :mod:`tests.compiler.tiling_oracle` builds and prices one ``Tiling``
at a time.  Every case asserts that the two agree on the chosen tiling,
the weight-stationary tiling (or ``None``), the worst legal tiling, the
legal list in order, and every row's cost under ``==``; or that both
raise the same error with the same message.  Cases cover every
registered core and one ad-hoc design point, every dtype each supports,
unit, native-multiple and off-by-one dims up to 9000, and every GEMM the
perfbench ``cold`` pool compiles.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler import tiling
from repro.compiler.lowering import _resident_tilings
from repro.config.core_configs import (ASCEND_LITE, CORE_CONFIGS, CubeShape,
                                       core_config_by_name)
from repro.dtypes import FP16, FP32, INT4, INT8, dtype_by_name
from repro.errors import CompileError, IsaError
from repro.models import build_model

from tests.compiler import tiling_oracle as oracle
from tests.scripts import load_script

_DTYPES = (FP16, INT8, INT4, FP32)

# An unregistered design point: off-grid cube and buffer sizes,
# non-integer bus widths, no LLC (GM traffic rides the UB port) and
# every cube dtype.
_AD_HOC = dataclasses.replace(
    ASCEND_LITE, name="ascend-lite-adhoc", cube=CubeShape(8, 16, 32),
    cube_dtypes=(FP16, INT8, INT4, FP32), vector_width_bytes=96,
    l1_to_l0b_bw=512e9, llc_bw_per_core=None, l1_bytes=96 * 1024,
    l0a_bytes=24 * 1024, l0b_bytes=12 * 1024, l0c_bytes=48 * 1024,
    ub_bytes=40 * 1024)
# The ad-hoc core with an L1 too small to stage a native k slice: only
# GEMMs with a short K have a legal tiling (fp16: K <= 12).
_STARVED = dataclasses.replace(_AD_HOC, name="ascend-lite-starved",
                               l1_bytes=2 * 1024)

_CORES = tuple(CORE_CONFIGS.values()) + (_AD_HOC,)
_SUPPORTED = [(core, dt) for core in _CORES for dt in _DTYPES
              if core.supports_dtype(dt)]
_UNSUPPORTED = [(core, dt) for core in _CORES for dt in _DTYPES
                if not core.supports_dtype(dt)]

# 1, 2, 9000, and small multiples of every native tile dim the cores use
# (4 to 128, plus 256), each with its neighbours: where candidate lists
# gain a member and round-ups change.
_SPECIAL_DIMS = sorted(
    {1, 2, 9000}
    | {d for base in (4, 8, 16, 32, 64, 128, 256)
       for mult in (1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 32)
       for d in (base * mult - 1, base * mult, base * mult + 1)
       if 1 <= d <= 9000})
_dims = st.one_of(st.sampled_from(_SPECIAL_DIMS), st.integers(1, 9000))


def _ids(pairs):
    return [f"{core.name}-{dt.name}" for core, dt in pairs]


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (CompileError, IsaError) as exc:
        return type(exc), str(exc)


def _resident(m, k, n, config, dtype):
    """The weight-stationary tiling as ``lower_gemm`` picks it."""
    space = tiling.tiling_space(m, k, n, config, dtype)
    return _resident_tilings(space, [(m, k, n, dtype)], config)[0]


def _worst(m, k, n, config, dtype):
    """The worst legal tiling as the Auto-Tiling ablation picks it."""
    space = tiling.tiling_space(m, k, n, config, dtype)
    return space.tiling(int(np.argmax(space.cycles)))


def _assert_matches_oracle(m, k, n, config, dtype):
    case = (m, k, n, config.name, dtype.name)
    want = _outcome(oracle.legal_tilings, m, k, n, config, dtype)
    assert _outcome(tiling.legal_tilings, m, k, n, config, dtype) == want, case
    for prod, ref in ((tiling.choose_tiling, oracle.choose_tiling),
                      (_resident, oracle.residency_tiling),
                      (_worst, oracle.worst_tiling)):
        got = _outcome(prod, m, k, n, config, dtype)
        assert got == _outcome(ref, m, k, n, config, dtype), (case, prod)
    assert not oracle.K_STAGE_SKIPS, oracle.K_STAGE_SKIPS
    if isinstance(want, tuple):
        return want[0]
    space = tiling.tiling_space(m, k, n, config, dtype)
    costs = [oracle.estimate_gemm_cycles(m, k, n, t, config, dtype)
             for t in want]
    assert space.cycles.tolist() == costs, case
    return None


@pytest.mark.parametrize("config,dtype", _SUPPORTED, ids=_ids(_SUPPORTED))
@given(m=_dims, k=_dims, n=_dims)
@example(m=1, k=1, n=1)
@example(m=9000, k=9000, n=9000)
@settings(max_examples=12, deadline=None)
def test_matches_oracle(config, dtype, m, k, n):
    assert _assert_matches_oracle(m, k, n, config, dtype) is None


@pytest.mark.parametrize("config,dtype", _UNSUPPORTED,
                         ids=_ids(_UNSUPPORTED))
@given(m=_dims, k=_dims, n=_dims)
@settings(max_examples=3, deadline=None)
def test_unsupported_dtype_matches_oracle(config, dtype, m, k, n):
    assert _assert_matches_oracle(m, k, n, config, dtype) is IsaError


@pytest.mark.parametrize("dtype", _DTYPES, ids=lambda dt: dt.name)
@given(m=_dims, k=_dims, n=_dims)
@example(m=64, k=4, n=64)
@example(m=64, k=4096, n=64)
@settings(max_examples=20, deadline=None)
def test_no_legal_tiling_matches_oracle(dtype, m, k, n):
    _assert_matches_oracle(m, k, n, _STARVED, dtype)


def test_no_legal_tiling_error():
    with pytest.raises(CompileError,
                       match="^no legal tiling for 64x4096x64 fp16 on "
                             "ascend-lite-starved$"):
        tiling.choose_tiling(64, 4096, 64, _STARVED, FP16)
    assert tiling.legal_tilings(64, 4, 64, _STARVED, FP16)


def test_cold_pool_gemms_match_oracle():
    pool = load_script("perfbench/workloads.py").COMPILE_POOL
    cases = sorted({(g.m, g.k, g.n, core, g.dtype.name)
                    for model, core in pool
                    for _, work in build_model(model).grouped_workloads()
                    for g in work.gemms})
    assert len(cases) == 190
    for m, k, n, core, dt in cases:
        assert _assert_matches_oracle(m, k, n, core_config_by_name(core),
                                      dtype_by_name(dt)) is None
