"""Auto-tiling: choose GEMM tile shapes for a core design point.

Section 5.1: «The dedicated compiler technique, called "Auto Tiling", is
used to transfer big tasks into small fractals to adapt to Ascend
architecture ... this technology offers the best tiling and scheduling
for any program by intelligently searching legitimate mapping space.»

The shipped compiler guides that search with reinforcement learning; this
reproduction enumerates the legitimate mapping space exhaustively and
prices every candidate with the same cycle model the simulator uses.  The
space, quantized to power-of-two multiples of the cube-native tile, is at
most a few thousand points, so :func:`tiling_space` builds and prices it
as one table in a single numpy pass:

* the tm x tk x tn x k-stage-multiple grid, in the lexicographic
  (tm, tk, tn, k_stage) order :func:`legal_tilings` returns;
* one mask for the five double-buffered capacity checks;
* the cost model as float64 column arithmetic, each row computed in the
  operation order of pricing that one tiling alone, so every cost is
  bit-identical to the per-candidate formula.

``argmin`` over the legal rows is the first strict minimum a loop over
them would keep; :func:`choose_tiling` returns it, and the
weight-stationary schedule picks from a second mask over the same table
(``lowering._residency_tiling``).  The per-candidate search is the test
oracle in tests/compiler/tiling_oracle.py.  See DESIGN.md substitutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..config.core_configs import CoreConfig
from ..core.costs import CostModel
from ..dtypes import DType, FP16, accumulator_for
from ..errors import CompileError
from ..memory.bandwidth import DatapathModel, Route

__all__ = ["Tiling", "TilingSpace", "tiling_space", "legal_tilings",
           "choose_tiling"]

_DOUBLE_BUFFER = 2
# How much of K one L1 stage holds, in multiples of tk.
_K_STAGE_MULTS = np.array([1, 2, 4, 8], np.int64)


@dataclass(frozen=True)
class Tiling:
    """A two-level GEMM mapping.

    (tm, tk, tn) is the L0 tile one CubeMatmul instruction covers;
    k_stage is how much of K is staged in L1 per MTE2 transfer.
    """

    tm: int
    tk: int
    tn: int
    k_stage: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tiling({self.tm}x{self.tk}x{self.tn}, k_stage={self.k_stage})"


@dataclass(frozen=True, eq=False)
class TilingSpace:
    """The legal mapping space of one GEMM, priced: one row per tiling.

    Rows are in lexicographic (tm, tk, tn, k_stage) order; ``cycles`` is
    each row's analytic cycle estimate (:func:`_gemm_cycles`).
    """

    tm: np.ndarray
    tk: np.ndarray
    tn: np.ndarray
    k_stage: np.ndarray
    cycles: np.ndarray

    def tiling(self, row: int) -> Tiling:
        return Tiling(int(self.tm[row]), int(self.tk[row]),
                      int(self.tn[row]), int(self.k_stage[row]))

    def tilings(self) -> List[Tiling]:
        return list(map(Tiling, self.tm.tolist(), self.tk.tolist(),
                        self.tn.tolist(), self.k_stage.tolist()))

    def cheapest(self, mask: Optional[np.ndarray] = None) -> Optional[Tiling]:
        """The first lowest-cost row, among ``mask``'s rows when given
        (None when the mask selects nothing)."""
        if mask is None:
            return self.tiling(int(np.argmin(self.cycles)))
        rows = np.flatnonzero(mask)
        if not rows.size:
            return None
        return self.tiling(int(rows[np.argmin(self.cycles[rows])]))


def tiling_space(m: int, k: int, n: int, config: CoreConfig,
                 dtype: DType = FP16) -> TilingSpace:
    """Enumerate and price the legitimate mapping space of an M x K x N GEMM.

    Candidates are power-of-two multiples of the native cube shape,
    clipped to the problem size, subject to the double-buffered capacity
    constraints.  Raises :class:`CompileError` when none fits.
    """
    costs = CostModel(config)
    m0, k0, n0 = costs.cube_tile_shape(dtype)
    cand_m = _candidates(m, m0)
    cand_k = _candidates(k, k0)
    cand_n = _candidates(n, n0)
    # Broadcast axes (tm, tk, tn, mult): the masks below span the grid
    # without materializing it, and np.nonzero walks it in C order,
    # which is the lexicographic order of the rows.
    tm = cand_m[:, None, None, None]
    tk = cand_k[None, :, None, None]
    tn = cand_n[None, None, :, None]
    k_stage = np.minimum(k, tk * _K_STAGE_MULTS)
    nbytes = dtype.bytes
    acc_bytes = accumulator_for(dtype).bytes
    legal = (
        # k_stage clipping repeats a row once the previous multiple
        # already reached k: keep only the first of the run.
        (tk * (_K_STAGE_MULTS // 2) < k)
        & (tm * tk * nbytes * _DOUBLE_BUFFER <= config.l0a_bytes)
        & (tk * tn * nbytes * _DOUBLE_BUFFER <= config.l0b_bytes)
        & (tm * tn * acc_bytes * _DOUBLE_BUFFER <= config.l0c_bytes)
        & ((tm * k_stage + k_stage * tn) * nbytes * _DOUBLE_BUFFER
           <= config.l1_bytes)
        & (tm * tn * acc_bytes * _DOUBLE_BUFFER <= config.ub_bytes)
    )
    i_m, i_k, i_n, i_mult = np.nonzero(legal)
    if not i_m.size:
        raise CompileError(
            f"no legal tiling for {m}x{k}x{n} {dtype} on {config.name}")
    rows_m, rows_k, rows_n = cand_m[i_m], cand_k[i_k], cand_n[i_n]
    rows_ks = k_stage[0, i_k, 0, i_mult]
    return TilingSpace(rows_m, rows_k, rows_n, rows_ks,
                       _gemm_cycles(m, k, n, rows_m, rows_k, rows_n, rows_ks,
                                    costs, dtype))


def legal_tilings(m: int, k: int, n: int, config: CoreConfig,
                  dtype: DType = FP16) -> List[Tiling]:
    """The legitimate mapping space of an M x K x N GEMM, in
    lexicographic (tm, tk, tn, k_stage) order."""
    return tiling_space(m, k, n, config, dtype).tilings()


def _candidates(dim: int, base: int) -> np.ndarray:
    """Tile-size candidates: the power-of-two multiples of the native dim
    below ``dim``, then ``dim`` rounded up to the native dim."""
    out = []
    size = base
    while size < dim:
        out.append(size)
        size *= 2
    out.append(-(-dim // base) * base if dim > base else base)
    return np.array(out, np.int64)


def _gemm_cycles(m: int, k: int, n: int, tm: np.ndarray, tk: np.ndarray,
                 tn: np.ndarray, k_stage: np.ndarray, costs: CostModel,
                 dtype: DType) -> np.ndarray:
    """Analytic cycle estimate of an M x K x N GEMM under each tiling row.

    Models the pipelined execution as max(per-pipe busy time) plus one
    pipeline fill; the same structure the event engine produces, without
    emitting instructions.  Every product and division runs in the same
    order for every row, on integers exact in float64, so each row's
    cost is bit-identical to pricing that tiling alone.
    """
    datapath = costs.datapath
    nbytes = dtype.bytes
    acc = accumulator_for(dtype)
    ov = DatapathModel.TRANSFER_OVERHEAD_CYCLES
    gm_bw = datapath.bytes_per_cycle(Route.GM_PORT)
    l0a_bw = datapath.bytes_per_cycle(Route.L1_TO_L0A)
    l0b_bw = datapath.bytes_per_cycle(Route.L1_TO_L0B)

    out_tiles = np.ceil(m / tm) * np.ceil(n / tn)
    k_stages = np.ceil(k / k_stage)
    k_feeds = np.ceil(k / tk)

    # Cube: one instruction per (output tile, k feed).
    cube = out_tiles * k_feeds * costs.cube_cycle_columns(tm, tk, tn, dtype)
    # MTE2: per (output tile, k stage) load A strip + B panel from GM.
    a_stage = tm * k_stage * nbytes
    b_stage = k_stage * tn * nbytes
    mte2 = out_tiles * k_stages * ((a_stage + b_stage) / gm_bw + 2 * ov)
    # MTE1: per (output tile, k feed) move A and B tiles into L0.
    a_feed = tm * tk * nbytes
    b_feed = tk * tn * nbytes
    mte1 = out_tiles * k_feeds * (a_feed / l0a_bw + b_feed / l0b_bw + 2 * ov)
    # Vector: move each output tile L0C -> UB.
    out_bytes = tm * tn * acc.bytes
    vec = out_tiles * (out_bytes / costs.config.vector_width_bytes + 2)
    # MTE3: store each output tile.
    mte3 = out_tiles * (out_bytes / datapath.bytes_per_cycle(Route.UB_PORT)
                        + ov)

    fill = (a_stage + b_stage) / gm_bw + a_feed / l0a_bw
    return np.maximum.reduce([cube, mte1, mte2, vec, mte3]) + fill


def choose_tiling(m: int, k: int, n: int, config: CoreConfig,
                  dtype: DType = FP16) -> Tiling:
    """Pick the lowest-modeled-cycles tiling (the first, on ties).

    Uncached: the lowering memo keys a GEMM by its request, so each
    distinct GEMM lowering searches once.
    """
    return tiling_space(m, k, n, config, dtype).cheapest()
