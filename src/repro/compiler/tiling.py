"""Auto-tiling: choose GEMM tile shapes for a core design point.

Section 5.1: «The dedicated compiler technique, called "Auto Tiling", is
used to transfer big tasks into small fractals to adapt to Ascend
architecture ... this technology offers the best tiling and scheduling
for any program by intelligently searching legitimate mapping space.»

The shipped compiler guides that search with reinforcement learning; this
reproduction enumerates the legitimate mapping space exhaustively and
prices every candidate with the same cycle model the simulator uses.  The
space, quantized to power-of-two multiples of the cube-native tile, is at
most a few thousand points per GEMM, so :func:`tiling_spaces` builds and
prices the spaces of a whole batch of GEMM shapes (a compile's misses)
as one table in a single numpy pass:

* per shape, the tm x tk x tn x k-stage-multiple grid, in the
  lexicographic (tm, tk, tn, k_stage) order :func:`legal_tilings`
  returns; shapes follow one another in batch order, their candidate
  lists padded to one width and masked;
* one mask over the tm x tk x tn grids for the L0A, L0B, L0C and UB
  capacity checks, then one over the k-stage multiples of the rows it
  keeps for the k-stage de-duplication and the L1 check (all five
  double buffered);
* the cost model as float64 column arithmetic with per-row m, k, n and
  dtype terms, each row computed in the operation order of pricing that
  one tiling alone, so every cost is bit-identical to the per-candidate
  formula.

Each shape takes the first strict minimum of its rows, as a loop over
them would keep it (:meth:`TilingSpace.cheapest`); the weight-stationary
schedule picks from a second mask over the same table
(``lowering._resident_tilings``).  :func:`tiling_space`,
:func:`choose_tiling` and :func:`legal_tilings` are the batch of one.
The per-candidate search is the test oracle in
tests/compiler/tiling_oracle.py.  See DESIGN.md substitutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config.core_configs import CoreConfig
from ..core.costs import CostModel
from ..dtypes import DType, FP16, accumulator_for
from ..errors import CompileError
from ..memory.bandwidth import DatapathModel, Route

__all__ = ["Tiling", "TilingSpace", "tiling_spaces", "tiling_space",
           "legal_tilings", "choose_tiling"]

_DOUBLE_BUFFER = 2
# How much of K one L1 stage holds, in multiples of tk.
_K_STAGE_MULTS = np.array([1, 2, 4, 8], np.int64)

GemmShape = Tuple[int, int, int, DType]


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
    """The legal mapping spaces of a batch of GEMM shapes, priced: one
    row per (shape, tiling).

    Shape ``i``'s rows are ``bounds[i]:bounds[i + 1]``, in lexicographic
    (tm, tk, tn, k_stage) order, and ``shape`` holds each row's shape
    index; ``cycles`` is each row's analytic cycle estimate
    (:func:`_gemm_cycles`).  Every shape has at least one row.
    """

    shape: np.ndarray
    bounds: np.ndarray
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

    def cheapest(self, mask: Optional[np.ndarray] = None
                 ) -> List[Optional[Tiling]]:
        """Per shape, its first lowest-cost row, among ``mask``'s rows
        when given (None for a shape the mask leaves no row)."""
        cycles = self.cycles if mask is None else np.where(mask, self.cycles,
                                                           np.inf)
        low = np.minimum.reduceat(cycles, self.bounds[:-1])
        at_low = np.flatnonzero(cycles == low[self.shape])
        first = at_low[np.diff(self.shape[at_low], prepend=-1) != 0]
        return [self.tiling(row) if lo < np.inf else None
                for row, lo in zip(first.tolist(), low.tolist())]


def tiling_spaces(shapes: Sequence[GemmShape],
                  config: CoreConfig) -> TilingSpace:
    """Enumerate and price the legitimate mapping space of every
    ``(m, k, n, dtype)`` GEMM in ``shapes`` as one table.

    Candidates are power-of-two multiples of the native cube shape,
    clipped to the problem size, subject to the double-buffered capacity
    constraints.  Raises the error of the first shape, in order, that
    has none: :class:`IsaError` for a dtype the cube does not speak,
    :class:`CompileError` when no tiling fits.
    """
    costs = CostModel(config)
    unsupported = next((i for i, shape in enumerate(shapes)
                        if not config.supports_dtype(shape[3])), len(shapes))
    space = _price(shapes[:unsupported], costs)
    empty = np.flatnonzero(np.diff(space.bounds) == 0)
    if empty.size:
        m, k, n, dtype = shapes[int(empty[0])]
        raise CompileError(
            f"no legal tiling for {m}x{k}x{n} {dtype} on {config.name}")
    if unsupported < len(shapes):
        costs.cube_tile_shape(shapes[unsupported][3])  # raises IsaError
    return space


def tiling_space(m: int, k: int, n: int, config: CoreConfig,
                 dtype: DType = FP16) -> TilingSpace:
    """The legitimate mapping space of one M x K x N GEMM, priced: the
    batch of one of :func:`tiling_spaces`."""
    return tiling_spaces([(m, k, n, dtype)], config)


def legal_tilings(m: int, k: int, n: int, config: CoreConfig,
                  dtype: DType = FP16) -> List[Tiling]:
    """The legitimate mapping space of an M x K x N GEMM, in
    lexicographic (tm, tk, tn, k_stage) order."""
    return tiling_space(m, k, n, config, dtype).tilings()


def choose_tiling(m: int, k: int, n: int, config: CoreConfig,
                  dtype: DType = FP16) -> Tiling:
    """Pick the lowest-modeled-cycles tiling (the first, on ties).

    Uncached: the lowering memo keys a GEMM by its request, so each
    distinct GEMM lowering searches once.
    """
    return tiling_space(m, k, n, config, dtype).cheapest()[0]


def _candidates(dims: np.ndarray, bases: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Per shape, the tile-size candidates along one axis: the
    power-of-two multiples of the native dim below ``dim``, then ``dim``
    rounded up to the native dim.  Rows are padded to one width; the
    second array marks the real entries."""
    # base << j < dim exactly for j < bit_length((dim - 1) // base); frexp's
    # exponent is that bit length (exact below 2**53).
    doublings = np.frexp((dims - 1) // bases)[1].astype(np.int64)
    last = np.where(dims > bases, -(-dims // bases) * bases, bases)
    j = np.arange(int(doublings.max(initial=0)) + 1, dtype=np.int64)
    below = j < doublings[:, None]
    sizes = np.where(below, bases[:, None] << np.where(below, j, 0),
                     last[:, None])
    return sizes, j <= doublings[:, None]


def _price(shapes: Sequence[GemmShape], costs: CostModel) -> TilingSpace:
    """The priced table of ``shapes``, whose dtypes the cube speaks; a
    shape with no legal tiling gets no rows."""
    config = costs.config
    count = len(shapes)
    m, k, n = (np.array([s[i] for s in shapes], np.int64).reshape(count)
               for i in range(3))
    dtypes = [s[3] for s in shapes]
    tile = np.array([costs.cube_tile_shape(dt) for dt in dtypes],
                    np.int64).reshape(count, 3)
    nbytes = np.array([dt.bytes for dt in dtypes], np.float64)
    acc_bytes = np.array([accumulator_for(dt).bytes for dt in dtypes],
                         np.float64)
    cand_m, real_m = _candidates(m, tile[:, 0])
    cand_k, real_k = _candidates(k, tile[:, 1])
    cand_n, real_n = _candidates(n, tile[:, 2])

    # Broadcast axes (shape, tm, tk, tn): the masks below span the grid
    # without materializing it, and np.nonzero walks it in C order, which
    # is shape order, then the lexicographic order of its rows.
    def axis(values: np.ndarray, at: Optional[int] = None) -> np.ndarray:
        """Per-shape ``values`` on the grid; 2-D ones (per shape and
        candidate) along grid axis ``at``."""
        shape = [count, 1, 1, 1]
        if at is not None:
            shape[at] = values.shape[1]
        return values.reshape(shape)

    tm, tk, tn = axis(cand_m, 1), axis(cand_k, 2), axis(cand_n, 3)
    nb, ab = axis(nbytes), axis(acc_bytes)
    fits = (
        (axis(real_m, 1) & axis(real_k, 2)
         & (tm * tk * nb * _DOUBLE_BUFFER <= config.l0a_bytes))
        & (axis(real_n, 3)
           & (tk * tn * nb * _DOUBLE_BUFFER <= config.l0b_bytes))
        & ((tm * tn * ab * _DOUBLE_BUFFER <= config.l0c_bytes)
           & (tm * tn * ab * _DOUBLE_BUFFER <= config.ub_bytes))
    )
    shape, i_m, i_k, i_n = np.nonzero(fits)
    # Each (tm, tk, tn) row then takes its k-stage multiples, innermost.
    rows_m = cand_m[shape, i_m][:, None]
    rows_k = cand_k[shape, i_k][:, None]
    rows_n = cand_n[shape, i_n][:, None]
    k_rows = k[shape][:, None]
    k_stage = np.minimum(k_rows, rows_k * _K_STAGE_MULTS)
    row, i_mult = np.nonzero(
        # k_stage clipping repeats a row once the previous multiple
        # already reached k: keep only the first of the run.
        (rows_k * (_K_STAGE_MULTS // 2) < k_rows)
        & ((rows_m * k_stage + k_stage * rows_n) * nbytes[shape][:, None]
           * _DOUBLE_BUFFER <= config.l1_bytes))
    shape = shape[row]
    rows_m, rows_k, rows_n = rows_m[row, 0], rows_k[row, 0], rows_n[row, 0]
    rows_ks = k_stage[row, i_mult]
    bounds = np.zeros(count + 1, np.int64)
    np.cumsum(np.bincount(shape, minlength=count), out=bounds[1:])
    cycles = _gemm_cycles(m[shape], k[shape], n[shape], rows_m, rows_k,
                          rows_n, rows_ks, costs, nbytes[shape],
                          acc_bytes[shape], *tile.T[:, shape])
    return TilingSpace(shape, bounds, rows_m, rows_k, rows_n, rows_ks, cycles)


def _gemm_cycles(m: np.ndarray, k: np.ndarray, n: np.ndarray, tm: np.ndarray,
                 tk: np.ndarray, tn: np.ndarray, k_stage: np.ndarray,
                 costs: CostModel, nbytes: np.ndarray, acc_bytes: np.ndarray,
                 m0: np.ndarray, k0: np.ndarray, n0: np.ndarray) -> np.ndarray:
    """Analytic cycle estimate of each row's M x K x N GEMM under its
    tiling, with per-row dtype terms (element bytes, accumulator bytes,
    native cube tile).

    Models the pipelined execution as max(per-pipe busy time) plus one
    pipeline fill; the same structure the event engine produces, without
    emitting instructions.  Every product and division runs in the same
    order for every row, on integers exact in float64, so each row's
    cost is bit-identical to pricing that tiling alone.
    """
    datapath = costs.datapath
    ov = DatapathModel.TRANSFER_OVERHEAD_CYCLES
    gm_bw = datapath.bytes_per_cycle(Route.GM_PORT)
    l0a_bw = datapath.bytes_per_cycle(Route.L1_TO_L0A)
    l0b_bw = datapath.bytes_per_cycle(Route.L1_TO_L0B)

    out_tiles = np.ceil(m / tm) * np.ceil(n / tn)
    k_stages = np.ceil(k / k_stage)
    k_feeds = np.ceil(k / tk)

    # Cube: one instruction per (output tile, k feed).
    cube = out_tiles * k_feeds * costs.cube_tile_cycles(tm, tk, tn,
                                                        m0, k0, n0)
    # MTE2: per (output tile, k stage) load A strip + B panel from GM.
    a_stage = tm * k_stage * nbytes
    b_stage = k_stage * tn * nbytes
    mte2 = out_tiles * k_stages * ((a_stage + b_stage) / gm_bw + 2 * ov)
    # MTE1: per (output tile, k feed) move A and B tiles into L0.
    a_feed = tm * tk * nbytes
    b_feed = tk * tn * nbytes
    mte1 = out_tiles * k_feeds * (a_feed / l0a_bw + b_feed / l0b_bw + 2 * ov)
    # Vector: move each output tile L0C -> UB.
    out_bytes = tm * tn * acc_bytes
    vec = out_tiles * (out_bytes / costs.config.vector_width_bytes + 2)
    # MTE3: store each output tile.
    mte3 = out_tiles * (out_bytes / datapath.bytes_per_cycle(Route.UB_PORT)
                        + ov)

    fill = (a_stage + b_stage) / gm_bw + a_feed / l0a_bw
    busiest = np.maximum(np.maximum(np.maximum(cube, mte1), mte2),
                         np.maximum(vec, mte3))
    return busiest + fill
