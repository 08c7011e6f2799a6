"""GEMM and vector lowering, emitted as columnar instruction arenas.

Every program :mod:`repro.compiler.lowering` returns is built here,
without creating a single instruction object, and a lowering batch (a
compile's missed layers) is emitted in two passes: every GEMM into one
arena, every vector stream into another.  Each program's rows are then
a zero-copy row slice of its pass's arena
(:meth:`InstructionArena.split`).  Every row's global position is
computed with cumulative-sum index arithmetic over the batch's tile
grids, and the columns are filled by broadcast scatter stores.  The
per-object emitters in tests/compiler/lowering_oracle.py walk the same
schedules in nested loops, one GEMM at a time;
tests/compiler/test_lowering_arena.py pins the two together instruction
for instruction, and tests/compiler/test_batch_lowering.py pins every
batch to its requests lowered one at a time.

How positions are derived: each schedule is a fixed row pattern per
feed / stage / tile, where only a handful of rows are conditional
(pipeline-fill waits exist only once the corresponding double-buffer
index reaches 2, the L0C-reuse wait only on the first matmul of a tile,
and under weight-stationary residency the B moves only on a column's
first tile).  Encoding each conditional as a 0/1 column makes
rows-per-feed, rows-per-stage and rows-per-tile plain integer columns;
exclusive cumulative sums of those over the whole batch give every
block's start row, and each role's rows land at ``block_start + fixed
offset + conditional offsets``.  Every GEMM-level scalar of the
one-GEMM schedule (tile shape, K stages, feed pattern, byte offsets,
dtype ids, A-row counts) is a per-GEMM column, gathered by each tile's,
stage's and feed's GEMM id.  Each GEMM's kernel end appends one wait for
every release set no later row of it consumes, in string-sorted channel
order, right after its own body.

Integer exactness: the oracle computes byte offsets as
``int(count * dtype.bytes)`` — float multiplication then truncation.
For every supported dtype ``bytes`` is ``bits / 8`` with bits in
{4, 8, 16, 32}, so the product is an exact dyadic rational and the
truncation equals ``count * bits // 8`` in plain integer arithmetic,
which is what the column expressions use.  The A-row counts
``int(round(tm * a_bytes_scale))`` round half to even, as ``np.rint``
does on the same float64 product.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config.core_configs import CoreConfig
from ..dtypes import INT8, DType, accumulator_for
from ..graph.workload import VectorWork
from ..isa.arena import DTYPE_ID, InstructionArena
from ..isa.channels import (
    EV_B_RESIDENT_FREE,
    EV_L0C_TILE_FREE,
    EV_L0C_TILE_READY,
    EV_L0_FEED_FREE,
    EV_L0_FEED_READY,
    EV_L1_STAGE_FREE,
    EV_L1_STAGE_READY,
    EV_UB_TILE_FREE,
    EV_UB_TILE_READY,
    EV_VEC_CHUNK_READY,
    EV_VEC_RESULT_READY,
    EV_VEC_SLOT_FREE,
)
from ..isa.instructions import (
    OP_COPY,
    OP_CUBE,
    OP_DECOMP,
    OP_SET,
    OP_VECTOR,
    OP_WAIT,
    VectorOpcode,
)
from ..isa.memref import MemSpace
from ..isa.pipes import Pipe
from ..memory.zvc import zvc_compressed_nbytes
from .tiling import Tiling

__all__ = ["lower_gemm_arena", "lower_vector_arena"]

_I64 = np.int64
_VOP_ID = {op: i for i, op in enumerate(VectorOpcode)}
_INT8_ID = DTYPE_ID[INT8.name]  # compressed ZVC byte streams

# Pipe / space ints used in scatter stores.
_M, _V = int(Pipe.M), int(Pipe.V)
_MTE1, _MTE2, _MTE3 = int(Pipe.MTE1), int(Pipe.MTE2), int(Pipe.MTE3)
_L0A, _L0B, _L0C = int(MemSpace.L0A), int(MemSpace.L0B), int(MemSpace.L0C)
_L1, _UB, _GM = int(MemSpace.L1), int(MemSpace.UB), int(MemSpace.GM)

# A GEMM's kernel-end waits, in the oracle's string-sorted channel order
# (M->MTE1 ev3 then ev9, MTE1->MTE2 ev1, MTE3->V ev7, V->M ev5): one
# (src, dst, event) per kind.
_DRAIN_SRC = np.array([_M, _M, _MTE1, _MTE3, _V], _I64)
_DRAIN_DST = np.array([_MTE1, _MTE1, _MTE2, _V, _M], _I64)
_DRAIN_EVENT = np.array([EV_L0_FEED_FREE, EV_B_RESIDENT_FREE,
                         EV_L1_STAGE_FREE, EV_UB_TILE_FREE,
                         EV_L0C_TILE_FREE], _I64)

# A GEMM request as the emitter reads it:
# (m, k, n, dtype, out_dtype, a_bytes_scale).
GemmRequest = Tuple[int, int, int, DType, DType, float]


def _flags(a: InstructionArena, pos, kind: int, src, dst, event) -> None:
    """Scatter set/wait flag rows (``pos`` may be any index array, and
    the channel scalars or per-row columns)."""
    a.kind[pos] = kind
    a.pipe[pos] = src if kind == OP_SET else dst  # SetFlag runs on src
    a.flag_src[pos] = src
    a.flag_dst[pos] = dst
    a.event[pos] = event


def _copy(a: InstructionArena, pos, pipe: int) -> None:
    a.kind[pos] = OP_COPY
    a.pipe[pos] = pipe


def _region(a: InstructionArena, pos, slot: int, space: int, offset,
            d0, d1, dtype_id, pitch=0) -> None:
    """Scatter one operand-region slot (d1=0 marks rank-1)."""
    a.r_space[pos, slot] = space
    a.r_offset[pos, slot] = offset
    a.r_d0[pos, slot] = d0
    a.r_d1[pos, slot] = d1
    a.r_dtype[pos, slot] = dtype_id
    a.r_pitch[pos, slot] = pitch


def _vector(a: InstructionArena, pos, vop: VectorOpcode,
            scalar: Optional[float] = None) -> None:
    a.kind[pos] = OP_VECTOR
    a.pipe[pos] = _V
    a.vop[pos] = _VOP_ID[vop]
    if scalar is not None:
        a.scalar[pos] = float(scalar)


def _zvc_bytes(elems: np.ndarray, density: float,
               elem_bytes: np.ndarray) -> np.ndarray:
    """Compressed B bytes per region: ``max(1, int(zvc size))``."""
    nbytes = zvc_compressed_nbytes(elems, density, elem_bytes)
    return np.maximum(1, nbytes.astype(_I64))


def _ragged(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``arange(c)`` for every count, end to end: each element's owner,
    its index within its owner, and each owner's first element."""
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size, dtype=_I64) - first[owner], first


def _split(arena: InstructionArena, rows: np.ndarray,
           tags: Sequence[str]) -> List[InstructionArena]:
    """Tag each program's rows and slice them out of the batch arena."""
    tagged = np.array([bool(tag) for tag in tags])
    arena.tag_id[:] = np.repeat(tagged, rows)
    bounds = np.zeros(rows.size + 1, _I64)
    np.cumsum(rows, out=bounds[1:])
    return arena.split(bounds.tolist(),
                       [["", tag] if tag else [""] for tag in tags])


def lower_gemm_arena(
    gemms: Sequence[GemmRequest],
    tilings: Sequence[Tiling],
    resident: Sequence[bool],
    tags: Sequence[str],
    post_ops: Sequence,
    layout,
    weight_density: Optional[float],
) -> List[InstructionArena]:
    """The ``lower_gemm`` schedule of every GEMM in ``gemms``, under its
    tiling, emitted into one arena: one row slice per GEMM, tagged with
    its tag.

    ``resident[i]`` selects GEMM ``i``'s weight-stationary schedule,
    whose B strip the caller has checked fits L0B; ``weight_density``
    the ZVC sparse path (performance-only).  The two never combine.
    ``layout`` and ``post_ops`` apply to every GEMM; the caller has
    rejected sub-byte dtypes, which the pitched L1 -> L0A feed cannot
    carry.
    """
    functional = layout is not None
    sparse = weight_density is not None
    m, k, n = (np.array([g[i] for g in gemms], _I64) for i in range(3))
    dtypes = [g[3] for g in gemms]
    out_dtypes = [g[4] for g in gemms]
    scale = np.array([g[5] for g in gemms], np.float64)
    bits = np.array([dt.bits for dt in dtypes], _I64)
    nbytes = np.array([dt.bytes for dt in dtypes], np.float64)
    out_bits = np.array([dt.bits for dt in out_dtypes], _I64)
    acc_bits = np.array([accumulator_for(dt).bits for dt in dtypes], _I64)
    dt = np.array([DTYPE_ID[d.name] for d in dtypes], _I64)
    odt = np.array([DTYPE_ID[d.name] for d in out_dtypes], _I64)
    adt = np.array([DTYPE_ID[accumulator_for(d).name] for d in dtypes], _I64)
    tm, tk, tn, ks = (np.array(col, _I64) for col in zip(
        *[(t.tm, t.tk, t.tn, t.k_stage) for t in tilings]))
    res = np.array(resident, bool)

    tiles_m = -(m // -tm)
    tiles_n = -(n // -tn)
    K = -(k // -ks)
    rm_last = m - (tiles_m - 1) * tm
    rn_last = n - (tiles_n - 1) * tn

    # Scratchpad slot offsets (double buffered), in exact integer bytes.
    a_stage_b = tm * ks * bits // 8
    b_stage_b = ks * tn * bits // 8
    l1_b_base = 2 * a_stage_b
    a_feed_b = tm * tk * bits // 8
    b_feed_b = tk * tn * bits // 8
    c_tile_b = tm * tn * acc_bits // 8
    ub_tile_b = tm * tn * out_bits // 8
    ub_bias_off = 2 * ub_tile_b

    # Every stage but the last holds a full k_stage; the per-tile feed
    # pattern is full stages of F_full feeds, then the last stage's.
    rk_last = k - (K - 1) * ks
    F_full = -(ks // -tk)
    F_last = -(rk_last // -tk)
    Ft = (K - 1) * F_full + F_last

    T = tiles_m * tiles_n   # output tiles
    NS = T * K              # L1 stages
    NF = T * Ft             # L0 feeds

    # Batch-wide indices (t, s, f) run over every GEMM's tiles, stages
    # and feeds end to end; tau, sigma and phi count within one GEMM.
    gt, tau, tile0 = _ragged(T)
    gs, sigma, stage0 = _ragged(NS)
    gf, phi, _ = _ragged(NF)

    # ---- per output tile ----
    # Tiles walk row-major; the weight-stationary schedule walks them
    # column-major, so one column's B strip serves all its tiles.
    res_t = res[gt]
    tiles_m_t, tiles_n_t = tiles_m[gt], tiles_n[gt]
    om_t = np.where(res_t, tau % tiles_m_t, tau // tiles_n_t)
    on_t = np.where(res_t, tau // tiles_m_t, tau % tiles_n_t)
    last_m_t = om_t == tiles_m_t - 1
    rm_t = np.where(last_m_t, rm_last[gt], tm[gt])
    rn_t = np.where(on_t == tiles_n_t - 1, rn_last[gt], tn[gt])
    tile_first_stage = stage0[gt] + tau * K[gt]

    # ---- per L1 stage ----
    K_s = K[gs]
    tau_s = sigma // K_s
    ok_s = sigma % K_s
    t_s = tile0[gs] + tau_s
    last_s = ok_s == K_s - 1
    rk_stage_s = np.where(last_s, rk_last[gs], ks[gs])
    F_s = np.where(last_s, F_last[gs], F_full[gs])

    # ---- per L0 feed ----
    tau_f = phi // Ft[gf]
    feed_in_tile = phi % Ft[gf]
    t_f = tile0[gf] + tau_f
    ok_f = np.minimum(feed_in_tile // F_full[gf], K[gf] - 1)
    ik_f = feed_in_tile - ok_f * F_full[gf]
    sigma_f = tau_f * K[gf] + ok_f
    s_f = stage0[gf] + sigma_f
    tk_f = tk[gf]
    rk_stage_f = rk_stage_s[s_f]
    rk_f = np.minimum(tk_f, rk_stage_f - ik_f * tk_f)
    rm_f = rm_t[t_f]
    rn_f = rn_t[t_f]

    # Conditional rows as 0/1 columns (pipeline-fill waits appear only
    # once each double-buffer index reaches 2; the L0C-reuse wait only on
    # a tile's first matmul).
    w1_s = (sigma >= 2).astype(_I64)            # wait MTE1->MTE2 ev1
    w3_f = (phi >= 2).astype(_I64)              # wait M->MTE1 ev3
    first_f = feed_in_tile == 0                 # first matmul of a tile
    w5_f = (first_f & (tau_f >= 2)).astype(_I64)  # wait V->M ev5
    w7_t = (tau >= 2).astype(_I64)              # wait MTE3->V ev7

    P = len(post_ops)
    has_bias = 1 if (functional and layout.bias_offset is not None) else 0

    # B moves GM -> L1 -> L0B for every tile, except under residency:
    # only for a column's first tile, with an EV_B_RESIDENT_FREE wait
    # before each later column and a set after every column.
    b_t = (~res_t | (om_t == 0)).astype(_I64)
    b_s, b_f = b_t[t_s], b_t[t_f]
    lead_t = (res_t & (om_t == 0) & (on_t > 0)).astype(_I64)
    trail_t = (res_t & last_m_t).astype(_I64)

    # Rows per feed / stage / tile, then every block's start row.
    rpf = 5 + b_f + w3_f + w5_f
    stage_first_feed = np.cumsum(F_s) - F_s
    rps = 4 + b_s + w1_s + np.add.reduceat(rpf, stage_first_feed)
    stage_rows_t = np.add.reduceat(rps, tile_first_stage)
    rpe = 8 + w7_t + has_bias + P
    rpt = stage_rows_t + rpe + lead_t + trail_t

    # Per GEMM: the one-off bias preload copy at its row 0, its tiles,
    # then its kernel-end waits for the release sets no later row of it
    # consumes (under residency the last column's retirement set is the
    # one unmatched ev9).
    pre = has_bias
    drain_counts = np.stack([np.minimum(2, NF), res.astype(_I64),
                             np.minimum(2, NS), np.minimum(2, T),
                             np.minimum(2, T)], axis=1)
    body_rows = pre + np.add.reduceat(rpt, tile0)
    rows = body_rows + drain_counts.sum(axis=1)
    start = np.cumsum(rows) - rows

    excl_t = np.cumsum(rpt) - rpt
    tile_start = (start + pre - excl_t[tile0])[gt] + excl_t
    body_t = tile_start + lead_t
    excl_s = np.cumsum(rps) - rps
    stage_start = (body_t - excl_s[tile_first_stage])[t_s] + excl_s
    excl_f = np.cumsum(rpf) - rpf
    feed_start = ((stage_start + 3 + b_s + w1_s
                   - excl_f[stage_first_feed])[s_f] + excl_f)
    ep = body_t + stage_rows_t  # epilogue start per tile

    arena = InstructionArena(int(rows.sum()))

    if has_bias:
        _copy(arena, start, _MTE2)
        _region(arena, start, 0, _UB, ub_bias_off, 1, n, odt)
        _region(arena, start, 1, _GM, layout.bias_offset, 1, n, odt)
    if res.any():
        _flags(arena, tile_start[lead_t == 1], OP_WAIT, _M, _MTE1,
               EV_B_RESIDENT_FREE)
        _flags(arena, (ep + rpe)[trail_t == 1], OP_SET, _M, _MTE1,
               EV_B_RESIDENT_FREE)
        b_stages, b_feeds = np.flatnonzero(b_s), np.flatnonzero(b_f)
    else:
        b_stages = b_feeds = slice(None)

    # ---- MTE2: stage A strip and B panel into L1 (one block per stage) ----
    slot_s = sigma % 2
    dt_s, bits_s = dt[gs], bits[gs]
    _flags(arena, stage_start[w1_s == 1], OP_WAIT, _MTE1, _MTE2, EV_L1_STAGE_FREE)
    pos = stage_start + w1_s
    _copy(arena, pos, _MTE2)
    rn_s = rn_t[t_s]
    a_l1_off = slot_s * a_stage_b[gs]
    if functional:
        a_d0 = rm_t[t_s]
        a_gm_off = (layout.a_offset
                    + (om_t[t_s] * tm[gs] * k[gs] + ok_s * ks[gs])
                    * bits_s // 8)
        _region(arena, pos, 0, _L1, a_l1_off, a_d0, rk_stage_s, dt_s)
        _region(arena, pos, 1, _GM, a_gm_off, a_d0, rk_stage_s, dt_s,
                pitch=(k * bits // 8)[gs])
    else:
        a_rows_full = np.maximum(1, np.rint(tm * scale).astype(_I64))
        a_rows_last = np.maximum(1, np.rint(rm_last * scale).astype(_I64))
        a_d0 = np.where(last_m_t[t_s], a_rows_last[gs], a_rows_full[gs])
        _region(arena, pos, 0, _L1, a_l1_off, a_d0, rk_stage_s, dt_s)
        _region(arena, pos, 1, _GM, 0, a_d0, rk_stage_s, dt_s)
    b_pos = (pos + 1)[b_stages]
    _copy(arena, b_pos, _MTE2)
    b_l1_off = (l1_b_base[gs] + slot_s * b_stage_b[gs])[b_stages]
    if sparse:
        comp = _zvc_bytes(rk_stage_s * rn_s, weight_density, nbytes[gs])
        _region(arena, b_pos, 0, _L1, b_l1_off, comp, 0, _INT8_ID)
        _region(arena, b_pos, 1, _GM, 0, comp, 0, _INT8_ID)
    else:
        rk_b, rn_b = rk_stage_s[b_stages], rn_s[b_stages]
        dt_b = dt_s[b_stages]
        _region(arena, b_pos, 0, _L1, b_l1_off, rk_b, rn_b, dt_b)
        if functional:
            b_gm_off = (layout.b_offset
                        + (ok_s * ks[gs] * n[gs] + on_t[t_s] * tn[gs])
                        * bits_s // 8)
            _region(arena, b_pos, 1, _GM, b_gm_off[b_stages], rk_b, rn_b,
                    dt_b, pitch=(n * bits // 8)[gs][b_stages])
        else:
            _region(arena, b_pos, 1, _GM, 0, rk_b, rn_b, dt_b)
    _flags(arena, pos + 1 + b_s, OP_SET, _MTE2, _MTE1, EV_L1_STAGE_READY)
    _flags(arena, pos + 2 + b_s, OP_WAIT, _MTE2, _MTE1, EV_L1_STAGE_READY)
    _flags(arena, stage_start + rps - 1, OP_SET, _MTE1, _MTE2, EV_L1_STAGE_FREE)

    # ---- MTE1 + cube: feed L0 tiles and fire matmuls (per feed) ----
    # L0B is double buffered per feed, except under residency, where a
    # tile's B feeds each keep their own slot for the whole column.
    # Resident B moves ahead of the A feed; otherwise A goes first.
    res_f = res[gf].astype(_I64)
    dt_f, bits_f = dt[gf], bits[gf]
    fslot = phi % 2
    slot_f = sigma_f % 2
    a_feed_off = fslot * a_feed_b[gf]
    l0b_off = np.where(res_f, feed_in_tile, fslot) * b_feed_b[gf]
    l1_b_f = l1_b_base[gf] + slot_f * b_stage_b[gf]
    _flags(arena, feed_start[w3_f == 1], OP_WAIT, _M, _MTE1, EV_L0_FEED_FREE)
    pos = feed_start + w3_f
    a_pos = pos + b_f * res_f
    b_pos = (pos + 1 - res_f)[b_feeds]
    _copy(arena, a_pos, _MTE1)
    _region(arena, a_pos, 0, _L0A, a_feed_off, rm_f, rk_f, dt_f)
    _region(arena, a_pos, 1, _L1,
            slot_f * a_stage_b[gf] + ik_f * tk_f * bits_f // 8,
            rm_f, rk_f, dt_f, pitch=rk_stage_f * bits_f // 8)
    rk_b, rn_b, dt_b = rk_f[b_feeds], rn_f[b_feeds], dt_f[b_feeds]
    _region(arena, b_pos, 0, _L0B, l0b_off[b_feeds], rk_b, rn_b, dt_b)
    if sparse:
        arena.kind[b_pos] = OP_DECOMP
        arena.pipe[b_pos] = _MTE1
        _region(arena, b_pos, 1, _L1, l1_b_f,
                _zvc_bytes(rk_f * rn_f, weight_density, nbytes[gf]), 0,
                _INT8_ID)
    else:
        _copy(arena, b_pos, _MTE1)
        b_src_off = l1_b_f + ik_f * tk_f * rn_f * bits_f // 8
        _region(arena, b_pos, 1, _L1, b_src_off[b_feeds], rk_b, rn_b, dt_b)
    pos = pos + 1 + b_f
    _flags(arena, pos, OP_SET, _MTE1, _M, EV_L0_FEED_READY)
    _flags(arena, pos + 1, OP_WAIT, _MTE1, _M, EV_L0_FEED_READY)
    _flags(arena, (pos + 2)[w5_f == 1], OP_WAIT, _V, _M, EV_L0C_TILE_FREE)
    pos = pos + 2 + w5_f
    arena.kind[pos] = OP_CUBE
    arena.pipe[pos] = _M
    arena.accumulate[pos] = (~first_f).astype(np.int8)
    _region(arena, pos, 0, _L0C, (tau_f % 2) * c_tile_b[gf], rm_f, rn_f,
            adt[gf])
    _region(arena, pos, 1, _L0A, a_feed_off, rm_f, rk_f, dt_f)
    _region(arena, pos, 2, _L0B, l0b_off, rk_f, rn_f, dt_f)
    _flags(arena, pos + 1, OP_SET, _M, _MTE1, EV_L0_FEED_FREE)

    # ---- vector epilogue + MTE3 store (per tile) ----
    cslot = tau % 2
    ub_off_t = cslot * ub_tile_b[gt]
    odt_t = odt[gt]
    _flags(arena, ep, OP_SET, _M, _V, EV_L0C_TILE_READY)
    _flags(arena, ep + 1, OP_WAIT, _M, _V, EV_L0C_TILE_READY)
    _flags(arena, (ep + 2)[w7_t == 1], OP_WAIT, _MTE3, _V, EV_UB_TILE_FREE)
    cast = ep + 2 + w7_t
    _vector(arena, cast, VectorOpcode.CAST)
    _region(arena, cast, 0, _UB, ub_off_t, rm_t, rn_t, odt_t)
    _region(arena, cast, 1, _L0C, cslot * c_tile_b[gt], rm_t, rn_t, adt[gt])
    _flags(arena, cast + 1, OP_SET, _V, _M, EV_L0C_TILE_FREE)
    if has_bias:
        bpos = cast + 2
        _vector(arena, bpos, VectorOpcode.ADD)
        _region(arena, bpos, 0, _UB, ub_off_t, rm_t, rn_t, odt_t)
        _region(arena, bpos, 1, _UB, ub_off_t, rm_t, rn_t, odt_t)
        _region(arena, bpos, 2, _UB,
                ub_bias_off[gt] + on_t * tn[gt] * out_bits[gt] // 8,
                1, rn_t, odt_t)
    for j, post in enumerate(post_ops):
        ppos = cast + 2 + has_bias + j
        _vector(arena, ppos, post.op, post.scalar)
        _region(arena, ppos, 0, _UB, ub_off_t, rm_t, rn_t, odt_t)
        _region(arena, ppos, 1, _UB, ub_off_t, rm_t, rn_t, odt_t)
    tail = cast + 2 + has_bias + P
    _flags(arena, tail, OP_SET, _V, _MTE3, EV_UB_TILE_READY)
    _flags(arena, tail + 1, OP_WAIT, _V, _MTE3, EV_UB_TILE_READY)
    cpos = tail + 2
    _copy(arena, cpos, _MTE3)
    if functional:
        c_gm_off = (layout.c_offset
                    + (om_t * tm[gt] * n[gt] + on_t * tn[gt])
                    * out_bits[gt] // 8)
        _region(arena, cpos, 0, _GM, c_gm_off, rm_t, rn_t, odt_t,
                pitch=(n * out_bits // 8)[gt])
    else:
        _region(arena, cpos, 0, _GM, 0, rm_t, rn_t, odt_t)
    _region(arena, cpos, 1, _UB, ub_off_t, rm_t, rn_t, odt_t)
    _flags(arena, cpos + 1, OP_SET, _MTE3, _V, EV_UB_TILE_FREE)

    kind = np.repeat(np.tile(np.arange(5), len(gemms)), drain_counts.ravel())
    gd, d_local, _ = _ragged(drain_counts.sum(axis=1))
    _flags(arena, (start + body_rows)[gd] + d_local, OP_WAIT,
           _DRAIN_SRC[kind], _DRAIN_DST[kind], _DRAIN_EVENT[kind])

    return _split(arena, rows, tags)


def lower_vector_arena(config: CoreConfig, works: Sequence[VectorWork],
                       tags: Sequence[str], load_input: bool,
                       store_output: bool) -> List[InstructionArena]:
    """The ``lower_vector_work`` stream of every work in ``works``,
    emitted into one arena: one row slice per work, tagged with its
    tag."""
    elems = np.array([w.elems for w in works], _I64)
    passes = np.array([w.passes for w in works], _I64)
    bits = np.array([w.dtype.bits for w in works], _I64)
    dt = np.array([DTYPE_ID[w.dtype.name] for w in works], _I64)
    chunk = np.maximum(1, (config.ub_bytes / (2 * (bits / 8))).astype(_I64))
    C = np.ceil(elems / chunk).astype(_I64)
    ld = 1 if load_input else 0
    st = 1 if store_output else 0

    # Per chunk (i: within its work), then every block's start row.
    gc, i, _ = _ragged(C)
    C_c, chunk_c, dt_c = C[gc], chunk[gc], dt[gc]
    ce = np.where(i == C_c - 1, elems[gc] - (C_c - 1) * chunk_c, chunk_c)
    slot_off = (i % 2) * (chunk_c * bits[gc] // 8)
    w0 = (i >= 2).astype(_I64) * ld

    passes_c = passes[gc]
    rpc = ld * (4 + w0) + passes_c + st * 3
    n_drain = np.minimum(2, C) * ld
    body_rows = C * (ld * 4 + passes + st * 3) + ld * np.maximum(0, C - 2)
    rows = body_rows + n_drain
    start = np.cumsum(rows) - rows
    excl = np.cumsum(rpc) - rpc
    first_chunk = np.cumsum(C) - C
    chunk_start = start[gc] + excl - excl[first_chunk[gc]]

    arena = InstructionArena(int(rows.sum()))

    if load_input:
        _flags(arena, chunk_start[w0 == 1], OP_WAIT, _V, _MTE2,
               EV_VEC_SLOT_FREE)
        pos = chunk_start + w0
        _copy(arena, pos, _MTE2)
        _region(arena, pos, 0, _UB, slot_off, ce, 0, dt_c)
        _region(arena, pos, 1, _GM, 0, ce, 0, dt_c)
        _flags(arena, pos + 1, OP_SET, _MTE2, _V, EV_VEC_CHUNK_READY)
        _flags(arena, pos + 2, OP_WAIT, _MTE2, _V, EV_VEC_CHUNK_READY)
        pbase = pos + 3
    else:
        pbase = chunk_start
    # One 1-pass MULS row per pass of each chunk.
    pc, j, _ = _ragged(passes_c)
    pos = pbase[pc] + j
    _vector(arena, pos, VectorOpcode.MULS, 1.0)
    _region(arena, pos, 0, _UB, slot_off[pc], ce[pc], 0, dt_c[pc])
    _region(arena, pos, 1, _UB, slot_off[pc], ce[pc], 0, dt_c[pc])
    pos = pbase + passes_c
    if load_input:
        _flags(arena, pos, OP_SET, _V, _MTE2, EV_VEC_SLOT_FREE)
        pos = pos + 1
    if store_output:
        _flags(arena, pos, OP_SET, _V, _MTE3, EV_VEC_RESULT_READY)
        _flags(arena, pos + 1, OP_WAIT, _V, _MTE3, EV_VEC_RESULT_READY)
        _copy(arena, pos + 2, _MTE3)
        _region(arena, pos + 2, 0, _GM, 0, ce, 0, dt_c)
        _region(arena, pos + 2, 1, _UB, slot_off, ce, 0, dt_c)
    gd, d_local, _ = _ragged(n_drain)
    _flags(arena, (start + body_rows)[gd] + d_local, OP_WAIT, _V, _MTE2,
           EV_VEC_SLOT_FREE)

    return _split(arena, rows, tags)
