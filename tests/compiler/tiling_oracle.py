"""The scalar auto-tiling search: the oracle the tiling table is compared to.

A verbatim copy of the per-candidate search :mod:`repro.compiler.tiling`
ran before it priced the whole legal mapping space in one numpy pass.
``legal_tilings`` builds one ``Tiling`` per grid point and checks it with
``_fits``; ``estimate_gemm_cycles`` prices one tiling; ``_search`` keeps
the first strict minimum.  ``residency_tiling`` is the weight-stationary
filter of ``compiler/lowering.py::_residency_tiling`` over the same list,
and ``worst_tiling`` is the first maximum, as the Auto-Tiling ablation
picks it.  tests/compiler/test_tiling_equivalence.py asserts production
agrees with every one of them, cost for cost with ``==``.

The cube price comes from the scalar cost oracle
(``tests/core/cost_oracle.py::cube_cycles``).  Besides a memo on
``legal_tilings``, the only addition to the copied code is
:data:`K_STAGE_SKIPS`: the
``k_stage % tk and k_stage != k`` skip can never fire, because
``k_stage = min(k, tk * mult)`` is either a multiple of ``tk`` or ``k``
itself.  Production has no such branch; the equivalence test asserts
the counter stays empty.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import List, Optional

from repro.compiler.tiling import Tiling
from repro.config.core_configs import CoreConfig
from repro.dtypes import DType, FP16, accumulator_for
from repro.errors import CompileError
from repro.memory.bandwidth import DatapathModel, Route

from tests.core.cost_oracle import cube_cycles

_DOUBLE_BUFFER = 2

# (m, k, n) -> times the k-stage divisibility skip fired; stays empty.
K_STAGE_SKIPS: Counter = Counter()


def _fits(tiling: Tiling, config: CoreConfig, dtype: DType) -> bool:
    acc = accumulator_for(dtype)
    a0 = tiling.tm * tiling.tk * dtype.bytes * _DOUBLE_BUFFER
    b0 = tiling.tk * tiling.tn * dtype.bytes * _DOUBLE_BUFFER
    c0 = tiling.tm * tiling.tn * acc.bytes * _DOUBLE_BUFFER
    l1 = (
        (tiling.tm * tiling.k_stage + tiling.k_stage * tiling.tn)
        * dtype.bytes
        * _DOUBLE_BUFFER
    )
    ub = tiling.tm * tiling.tn * acc.bytes * _DOUBLE_BUFFER
    return (
        a0 <= config.l0a_bytes
        and b0 <= config.l0b_bytes
        and c0 <= config.l0c_bytes
        and l1 <= config.l1_bytes
        and ub <= config.ub_bytes
    )


# Memoized (not in the copied code) so the equivalence suite's four
# entry points enumerate each case once; callers never mutate the list.
@lru_cache(maxsize=4096)
def legal_tilings(m: int, k: int, n: int, config: CoreConfig,
                  dtype: DType = FP16) -> List[Tiling]:
    """Enumerate the legitimate mapping space for an M x K x N GEMM.

    Candidates are multiples of the native cube shape, clipped to the
    problem size, subject to the double-buffered capacity constraints.
    """
    m0, k0, n0 = _cost_model_for(config).cube_tile_shape(dtype)
    tilings: List[Tiling] = []
    for tm in _candidates(m, m0):
        for tk in _candidates(k, k0):
            # Capacity bound on the A tile alone: candidates are sorted
            # ascending, so once 2*tm*tk overflows L0A every later tk
            # does too — skip them without ever calling _fits.
            if tm * tk * dtype.bytes * _DOUBLE_BUFFER > config.l0a_bytes:
                break
            for tn in _candidates(n, n0):
                for ks_mult in (1, 2, 4, 8):
                    k_stage = min(k, tk * ks_mult)
                    tiling = Tiling(tm, tk, tn, k_stage)
                    if k_stage % tk and k_stage != k:
                        K_STAGE_SKIPS[(m, k, n)] += 1
                        continue
                    if _fits(tiling, config, dtype):
                        tilings.append(tiling)
    if not tilings:
        raise CompileError(
            f"no legal tiling for {m}x{k}x{n} {dtype} on {config.name}"
        )
    # Deduplicate (k_stage clipping can repeat entries).
    return sorted(set(tilings), key=lambda t: (t.tm, t.tk, t.tn, t.k_stage))


def _candidates(dim: int, base: int) -> List[int]:
    """Tile-size candidates: powers-of-two multiples of the native dim."""
    out = []
    mult = 1
    while True:
        size = base * mult
        if size >= dim:
            out.append(_round_up(dim, base) if dim > base else base)
            break
        out.append(size)
        mult *= 2
    return sorted(set(out))


def _round_up(value: int, base: int) -> int:
    return -(-value // base) * base


@lru_cache(maxsize=64)
def _cost_model_for(config: CoreConfig):
    """One CostModel per design point — constructing a DatapathModel for
    every tiling candidate dominated the search's profile."""
    from repro.core.costs import CostModel

    return CostModel(config)


@lru_cache(maxsize=131072)
def estimate_gemm_cycles(m: int, k: int, n: int, tiling: Tiling,
                         config: CoreConfig, dtype: DType = FP16) -> float:
    """Analytic cycle estimate for one GEMM under a tiling.

    Models the pipelined execution as max(per-pipe busy time) plus one
    pipeline fill; the same structure the event engine produces, without
    emitting instructions.  Used to rank tilings.  Memoized per
    (m, k, n, tiling, config, dtype) — tiling searches across benchmark
    sweeps revisit the same candidates thousands of times.
    """
    costs = _cost_model_for(config)
    datapath = costs.datapath
    acc = accumulator_for(dtype)
    ov = DatapathModel.TRANSFER_OVERHEAD_CYCLES

    out_tiles_m = math.ceil(m / tiling.tm)
    out_tiles_n = math.ceil(n / tiling.tn)
    out_tiles = out_tiles_m * out_tiles_n
    k_stages = math.ceil(k / tiling.k_stage)
    k_feeds = math.ceil(k / tiling.tk)

    # Cube: one instruction per (output tile, k feed).
    cube = out_tiles * k_feeds * cube_cycles(costs, tiling.tm, tiling.tk,
                                             tiling.tn, dtype)
    # MTE2: per (output tile, k stage) load A strip + B panel from GM.
    a_stage = tiling.tm * tiling.k_stage * dtype.bytes
    b_stage = tiling.k_stage * tiling.tn * dtype.bytes
    gm_bw = datapath.bytes_per_cycle(Route.GM_PORT)
    mte2 = out_tiles * k_stages * ((a_stage + b_stage) / gm_bw + 2 * ov)
    # MTE1: per (output tile, k feed) move A and B tiles into L0.
    a_feed = tiling.tm * tiling.tk * dtype.bytes
    b_feed = tiling.tk * tiling.tn * dtype.bytes
    mte1 = out_tiles * k_feeds * (
        a_feed / datapath.bytes_per_cycle(Route.L1_TO_L0A)
        + b_feed / datapath.bytes_per_cycle(Route.L1_TO_L0B)
        + 2 * ov
    )
    # Vector: move each output tile L0C -> UB.
    out_bytes = tiling.tm * tiling.tn * acc.bytes
    vec = out_tiles * (out_bytes / config.vector_width_bytes + 2)
    # MTE3: store each output tile.
    mte3 = out_tiles * (out_bytes / datapath.bytes_per_cycle(Route.UB_PORT) + ov)

    fill = (a_stage + b_stage) / gm_bw + a_feed / datapath.bytes_per_cycle(
        Route.L1_TO_L0A
    )
    return max(cube, mte1, mte2, vec, mte3) + fill


def _search(m: int, k: int, n: int, config: CoreConfig,
            dtype: DType) -> Tiling:
    best: Optional[Tiling] = None
    best_cost = math.inf
    for tiling in legal_tilings(m, k, n, config, dtype):
        cost = estimate_gemm_cycles(m, k, n, tiling, config, dtype)
        if cost < best_cost:
            best, best_cost = tiling, cost
    assert best is not None  # legal_tilings raises when empty
    return best


def choose_tiling(m: int, k: int, n: int, config: CoreConfig,
                  dtype: DType = FP16) -> Tiling:
    """Pick the lowest-modeled-cycles tiling (no memo)."""
    return _search(m, k, n, config, dtype)


def residency_tiling(m: int, k: int, n: int, config: CoreConfig,
                     dtype: DType) -> Optional[Tiling]:
    """Best tiling whose whole B K-strip fits L0B, or None."""
    compatible = [
        t for t in legal_tilings(m, k, n, config, dtype)
        if math.ceil(k / t.tk) * t.tk * t.tn * dtype.bytes
        <= config.l0b_bytes
    ]
    if not compatible:
        return None
    return min(compatible,
               key=lambda t: estimate_gemm_cycles(m, k, n, t, config, dtype))


def worst_tiling(m: int, k: int, n: int, config: CoreConfig,
                 dtype: DType = FP16) -> Tiling:
    """The first highest-modeled-cycles legal tiling."""
    return max(legal_tilings(m, k, n, config, dtype),
               key=lambda t: estimate_gemm_cycles(m, k, n, t, config, dtype))
