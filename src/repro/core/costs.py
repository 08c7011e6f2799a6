"""Instruction cycle-cost model, parameterized by a core design point.

Cost anchors (Section 2.1 / Table 5):

* the cube retires one native m0 x k0 x n0 tile-MAC per cycle when fed;
  int8 doubles and int4 quadruples the k dimension on fp16 cores
  ("can extend to 16x32x16 with int8 precision");
* the vector unit processes ``vector_width_bytes`` per cycle per pass,
  with transcendentals costing multiple passes;
* MTE moves are bounded by the Table 5 bus widths (see
  :class:`~repro.memory.bandwidth.DatapathModel`).
"""

from __future__ import annotations

import math

import numpy as np

from ..config.core_configs import CoreConfig
from ..errors import IsaError
from ..isa.arena import _COLUMN_NAMES, DTYPE_BITS, DTYPE_TABLE
from ..isa.instructions import (
    OP_BARRIER,
    OP_COPY,
    OP_CUBE,
    OP_DECOMP,
    OP_IMG2COL,
    OP_SCALAR,
    OP_SET,
    OP_TRANSPOSE,
    OP_VECTOR,
    OP_WAIT,
    VectorOpcode,
)
from ..isa.memref import MemSpace
from ..memory.bandwidth import DatapathModel

__all__ = ["CostModel"]

_CUBE_STARTUP = 4
_VEC_STARTUP = 2
_FLAG_COST = 1

# Columnar lookups for cost_columns: vector passes by vop id, plus the
# two vop ids with the L0C special case.
_VOP_PASSES = np.array([op.passes for op in VectorOpcode], np.int64)
_VOP_COPY = list(VectorOpcode).index(VectorOpcode.COPY)
_VOP_CAST = list(VectorOpcode).index(VectorOpcode.CAST)


_COLUMN_MEMO_CAP = 512
# Every column but the tags: retagged arenas price alike.
_PRICED_COLUMNS = tuple(c for c in _COLUMN_NAMES if c != "tag_id")


class CostModel:
    """Maps instructions to cycle costs for one :class:`CoreConfig`."""

    def __init__(self, config: CoreConfig) -> None:
        self.config = config
        self.datapath = DatapathModel(config)
        # Whole-arena cost columns repeat too: retagged memo siblings
        # share every priced column, so one pricing serves all of them.
        # Keyed by column identity; the stored arena reference pins the
        # ids so they cannot be recycled while the entry lives.
        self._column_memo: dict = {}

    # -- cube -----------------------------------------------------------------

    def cube_tile_shape(self, dtype) -> tuple:
        """Native cube (m0, k0, n0) for a source dtype on this core.

        The k dimension scales with precision on fp16-baseline cubes:
        int8 doubles it, int4 quadruples it, and fp32 (the Section 7.2
        extension) halves it.
        """
        if not self.config.supports_dtype(dtype):
            raise IsaError(f"{self.config.name} cube does not support {dtype}")
        shape = self.config.cube
        k_scale = 1.0
        if self.config.cube_dtypes[0].name == "fp16":
            k_scale = {"int8": 2.0, "int4": 4.0, "fp32": 0.5}.get(
                dtype.name, 1.0)
        return (shape.m, max(1, int(shape.k * k_scale)), shape.n)

    def cube_cycle_columns(self, m: np.ndarray, k: np.ndarray, n: np.ndarray,
                           dtype) -> np.ndarray:
        """Cycles of one CubeMatmul per row of (m, k, n) columns, for one
        dtype: startup plus one cycle per native tile, every dimension
        rounded up by a float64 ceil division."""
        return self.cube_tile_cycles(m, k, n, *self.cube_tile_shape(dtype))

    @staticmethod
    def cube_tile_cycles(m: np.ndarray, k: np.ndarray, n: np.ndarray,
                         m0, k0, n0) -> np.ndarray:
        """:meth:`cube_cycle_columns` for native tile dims given as
        scalars or as per-row columns (a batch of mixed dtypes)."""
        tiles = np.ceil(m / m0) * np.ceil(k / k0) * np.ceil(n / n0)
        return _CUBE_STARTUP + tiles.astype(np.int64)

    # -- vector ---------------------------------------------------------------

    def vector_cycles(self, elems: int, elem_bytes: float, passes: int = 1) -> int:
        per_pass = math.ceil(elems * elem_bytes / self.config.vector_width_bytes)
        return _VEC_STARTUP + per_pass * passes

    # -- dispatch -------------------------------------------------------------

    def cost_columns(self, arena) -> np.ndarray:
        """:meth:`price_columns`, memoized by column identity and frozen:
        retagged memo siblings (a repeated layer scheduled again) share
        one pricing."""
        hit = self._column_memo.get(id(arena.kind))
        if (hit is not None
                and all(getattr(hit[0], c) is getattr(arena, c)
                        for c in _PRICED_COLUMNS)):
            return hit[1]
        cost = self.price_columns(arena)
        # Freeze before memoizing: any in-place mutation by a future
        # caller would silently poison every sharer — raising is better.
        cost.flags.writeable = False
        self._column_memo[id(arena.kind)] = (arena, cost)
        while len(self._column_memo) > _COLUMN_MEMO_CAP:
            self._column_memo.pop(next(iter(self._column_memo)))
        return cost

    def price_columns(self, arena) -> np.ndarray:
        """Per-row cycle costs for a whole arena, fully vectorized.

        The one production pricing path.  Tests assert it equals the
        scalar per-instruction oracle (``tests/core/cost_oracle.py::cost``)
        row for row: the ceil-of-float-division expressions below are
        the *same* float64 divisions the oracle performs, so no
        integer-vs-float rounding divergence is possible.  Works on
        inexact arenas too — every priced quantity (cycles, nbytes, elems)
        is column-encoded even for rows whose full semantics are not.
        """
        kind = arena.kind
        cost = np.zeros(arena.n, np.int64)
        cost[(kind == OP_SET) | (kind == OP_WAIT)
             | (kind == OP_BARRIER)] = _FLAG_COST
        sc = kind == OP_SCALAR
        if sc.any():
            cost[sc] = arena.misc[sc]

        mv = np.nonzero((kind == OP_COPY) | (kind == OP_IMG2COL)
                        | (kind == OP_TRANSPOSE) | (kind == OP_DECOMP))[0]
        if mv.size:
            # Img2Col charges its (expanded) destination; the other moves
            # charge their source (Instruction.nbytes).
            nb = arena.slot_bytes(mv, np.where(kind[mv] == OP_IMG2COL, 0, 1))
            width = self.datapath.width_matrix()[
                arena.r_space[mv, 1], arena.r_space[mv, 0]]
            c = (self.datapath.TRANSFER_OVERHEAD_CYCLES
                 + np.ceil(nb / width).astype(np.int64))
            c[nb <= 0] = self.datapath.TRANSFER_OVERHEAD_CYCLES
            cost[mv] = c

        cb = np.nonzero(kind == OP_CUBE)[0]
        if cb.size:
            m = arena.r_d0[cb, 1]
            k = arena.r_d1[cb, 1]
            n = arena.r_d1[cb, 2]
            dts = arena.r_dtype[cb, 1]
            c = np.zeros(m.size, np.int64)
            for dti in np.unique(dts):
                sel = dts == dti
                c[sel] = self.cube_cycle_columns(m[sel], k[sel], n[sel],
                                                 DTYPE_TABLE[dti])
            cost[cb] = c

        vec = np.nonzero(kind == OP_VECTOR)[0]
        if vec.size:
            slot = np.where(arena.r_space[vec, 1] >= 0, 1, 0)
            elems = arena.slot_elems(vec, slot).astype(np.float64)
            elem_bytes = DTYPE_BITS[arena.r_dtype[vec, slot]] / 8.0
            vops = arena.vop[vec]
            passes = _VOP_PASSES[vops]
            per_pass = np.ceil(
                elems * elem_bytes / self.config.vector_width_bytes)
            c = _VEC_STARTUP + (per_pass * passes).astype(np.int64)
            l0c = int(MemSpace.L0C)
            special = (((vops == _VOP_COPY) | (vops == _VOP_CAST))
                       & ((arena.r_space[vec] == l0c).any(axis=1)))
            if special.any():
                ub = np.ceil(elems[special] * elem_bytes[special]
                             / self.config.ub_bytes_per_cycle)
                c[special] = _VEC_STARTUP + ub.astype(np.int64)
            cost[vec] = c
        return cost
