"""GEMM and vector lowering, emitted as columnar instruction arenas.

Every program :mod:`repro.compiler.lowering` returns is built here,
without creating a single instruction object: every row's global
position is computed with cumulative-sum index arithmetic over the tile
grid, and the columns are filled by broadcast scatter stores.  The
per-object emitters in tests/compiler/lowering_oracle.py walk the same
schedules in nested loops; tests/compiler/test_lowering_arena.py pins
the two together instruction for instruction.

How positions are derived: each schedule is a fixed row pattern per
feed / stage / tile, where only a handful of rows are conditional
(pipeline-fill waits exist only once the corresponding double-buffer
index reaches 2, the L0C-reuse wait only on the first matmul of a tile,
and under weight-stationary residency the B moves only on a column's
first tile).  Encoding each conditional as a 0/1 column makes
rows-per-feed, rows-per-stage and rows-per-tile plain integer columns;
exclusive cumulative sums of those give every block's start row, and
each role's rows land at ``block_start + fixed offset + conditional
offsets``.  The kernel end appends one wait for every release set no
later row consumes, in string-sorted channel order.

Integer exactness: the oracle computes byte offsets as
``int(count * dtype.bytes)`` — float multiplication then truncation.
For every supported dtype ``bytes`` is ``bits / 8`` with bits in
{4, 8, 16, 32}, so the product is an exact dyadic rational and the
truncation equals ``count * bits // 8`` in plain integer arithmetic,
which is what the column expressions use.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..config.core_configs import CoreConfig
from ..dtypes import INT8, DType, accumulator_for
from ..errors import IsaError
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
from ..isa.program import Program
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


def _flags(a: InstructionArena, pos, kind: int, src: int, dst: int,
           event: int) -> None:
    """Scatter set/wait flag rows (``pos`` may be any index array)."""
    a.kind[pos] = kind
    a.pipe[pos] = src if kind == OP_SET else dst  # SetFlag runs on src
    a.flag_src[pos] = src
    a.flag_dst[pos] = dst
    a.event[pos] = event


def _copy(a: InstructionArena, pos, pipe: int) -> None:
    a.kind[pos] = OP_COPY
    a.pipe[pos] = pipe


def _region(a: InstructionArena, pos, slot: int, space: int, offset,
            d0, d1, dtype_id: int, pitch=0) -> None:
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


def _zvc_bytes(elems: np.ndarray, density: float, dtype: DType) -> np.ndarray:
    """Compressed B bytes per region: ``max(1, int(zvc size))``."""
    nbytes = zvc_compressed_nbytes(elems, density, dtype.bytes)
    return np.maximum(1, nbytes.astype(_I64))


def lower_gemm_arena(
    m: int,
    k: int,
    n: int,
    config: CoreConfig,
    dtype: DType,
    out_dtype: DType,
    tag: str,
    tiling: Tiling,
    post_ops: Sequence,
    layout,
    a_bytes_scale: float,
    weight_density: Optional[float],
    resident: bool,
) -> Program:
    """The ``lower_gemm`` schedule as one columnar arena.

    ``weight_density`` selects the ZVC sparse path (performance-only);
    ``resident`` the weight-stationary schedule, whose B strip the caller
    has checked fits L0B.  The two never combine.
    """
    acc = accumulator_for(dtype)
    functional = layout is not None
    sparse = weight_density is not None
    bits, out_bits, acc_bits = dtype.bits, out_dtype.bits, acc.bits
    # The L1 -> L0A feed copy is always pitched, and Region construction
    # rejects pitched sub-byte regions; fail the same way, eagerly.
    if bits % 8 or (functional and out_bits % 8):
        raise IsaError("pitched regions require byte-aligned dtypes")
    dt = DTYPE_ID[dtype.name]
    odt = DTYPE_ID[out_dtype.name]
    adt = DTYPE_ID[acc.name]

    tm, tk, tn, k_stage = tiling.tm, tiling.tk, tiling.tn, tiling.k_stage
    tiles_m = -(m // -tm)
    tiles_n = -(n // -tn)
    K = -(k // -k_stage)
    rm_last = m - (tiles_m - 1) * tm
    rn_last = n - (tiles_n - 1) * tn

    # Scratchpad slot offsets (double buffered), in exact integer bytes.
    a_stage_b = tm * k_stage * bits // 8
    b_stage_b = k_stage * tn * bits // 8
    l1_b_base = 2 * a_stage_b
    a_feed_b = tm * tk * bits // 8
    b_feed_b = tk * tn * bits // 8
    c_tile_b = tm * tn * acc_bits // 8
    ub_tile_b = tm * tn * out_bits // 8
    ub_bias_off = 2 * ub_tile_b

    # Per-stage k extents and feed counts: identical for every tile, so
    # the per-tile feed pattern is computed once and tiled.
    rk_stage_of = [min(k_stage, k - ok * k_stage) for ok in range(K)]
    F_of = [-(rks // -tk) for rks in rk_stage_of]
    Ft = sum(F_of)
    ok_pat: List[int] = []
    ik_pat: List[int] = []
    rk_pat: List[int] = []
    for ok, (rks, F) in enumerate(zip(rk_stage_of, F_of)):
        for ik in range(F):
            ok_pat.append(ok)
            ik_pat.append(ik)
            rk_pat.append(min(tk, rks - ik * tk))

    T = tiles_m * tiles_n   # output tiles
    NS = T * K              # L1 stages
    NF = T * Ft             # L0 feeds

    # Tiles walk row-major; the weight-stationary schedule walks them
    # column-major, so one column's B strip serves all its tiles.
    tau_t = np.arange(T, dtype=_I64)
    if resident:
        om_t, on_t = tau_t % tiles_m, tau_t // tiles_m
    else:
        om_t, on_t = tau_t // tiles_n, tau_t % tiles_n
    rm_t = np.where(om_t == tiles_m - 1, rm_last, tm)
    rn_t = np.where(on_t == tiles_n - 1, rn_last, tn)

    sigma = np.arange(NS, dtype=_I64)
    tau_s = sigma // K
    ok_s = sigma % K
    rks_arr = np.asarray(rk_stage_of, _I64)
    rk_stage_s = rks_arr[ok_s]

    phi = np.arange(NF, dtype=_I64)
    tau_f = phi // Ft
    feed_in_tile = phi % Ft
    ok_f = np.tile(np.asarray(ok_pat, _I64), T)
    ik_f = np.tile(np.asarray(ik_pat, _I64), T)
    rk_f = np.tile(np.asarray(rk_pat, _I64), T)
    sigma_f = tau_f * K + ok_f
    rm_f = rm_t[tau_f]
    rn_f = rn_t[tau_f]
    rk_stage_f = rks_arr[ok_f]

    # Conditional rows as 0/1 columns (pipeline-fill waits appear only
    # once each double-buffer index reaches 2; the L0C-reuse wait only on
    # a tile's first matmul).
    w1_s = (sigma >= 2).astype(_I64)            # wait MTE1->MTE2 ev1
    w3_f = (phi >= 2).astype(_I64)              # wait M->MTE1 ev3
    first_f = feed_in_tile == 0                 # first matmul of a tile
    w5_f = (first_f & (tau_f >= 2)).astype(_I64)  # wait V->M ev5
    w7_t = (tau_t >= 2).astype(_I64)            # wait MTE3->V ev7

    P = len(post_ops)
    has_bias = 1 if (functional and layout.bias_offset is not None) else 0

    # B moves GM -> L1 -> L0B for every tile, except under residency:
    # only for a column's first tile, with an EV_B_RESIDENT_FREE wait
    # before each later column and a set after every column.
    if resident:
        b_t = (om_t == 0).astype(_I64)
        b_s, b_f = b_t[tau_s], b_t[tau_f]
        lead_t = b_t * (on_t > 0)
        trail_t = (om_t == tiles_m - 1).astype(_I64)
    else:
        b_s = b_f = 1

    # Rows per feed / stage / tile, then every block's start row.
    rpf = 5 + b_f + w3_f + w5_f
    feed_rows_s = np.bincount(sigma_f, weights=rpf,
                              minlength=NS).astype(_I64)
    rps = 4 + b_s + w1_s + feed_rows_s
    stage_rows_t = np.bincount(tau_s, weights=rps, minlength=T).astype(_I64)
    rpe = 8 + w7_t + has_bias + P
    rpt = stage_rows_t + rpe
    if resident:
        rpt += lead_t + trail_t

    pre = has_bias  # the one-off bias preload copy at row 0
    tile_start = pre + np.cumsum(rpt) - rpt
    body_t = tile_start + lead_t if resident else tile_start
    excl_s = np.cumsum(rps) - rps
    stage_start = body_t[tau_s] + excl_s - excl_s[tau_s * K]
    F_per_stage = np.tile(np.asarray(F_of, _I64), T)
    stage_first_feed = np.cumsum(F_per_stage) - F_per_stage
    excl_f = np.cumsum(rpf) - rpf
    feed_start = ((stage_start + 3 + b_s + w1_s)[sigma_f]
                  + excl_f - excl_f[stage_first_feed[sigma_f]])
    ep = body_t + stage_rows_t  # epilogue start per tile

    # Kernel-end drain: unmatched release sets, in the oracle's
    # string-sorted channel order (M->MTE1 ev3 then ev9, MTE1->MTE2 ev1,
    # MTE3->V ev7, V->M ev5).  Under residency the last column's
    # retirement set is the one unmatched ev9.
    drains = ([(_M, _MTE1, EV_L0_FEED_FREE)] * min(2, NF)
              + [(_M, _MTE1, EV_B_RESIDENT_FREE)] * resident
              + [(_MTE1, _MTE2, EV_L1_STAGE_FREE)] * min(2, NS)
              + [(_MTE3, _V, EV_UB_TILE_FREE)] * min(2, T)
              + [(_V, _M, EV_L0C_TILE_FREE)] * min(2, T))

    body_rows = pre + int(np.sum(rpt))
    arena = InstructionArena(body_rows + len(drains),
                             tags=["", tag] if tag else [""])
    if tag:
        arena.tag_id[:] = 1

    if has_bias:
        _copy(arena, 0, _MTE2)
        _region(arena, 0, 0, _UB, ub_bias_off, 1, n, odt)
        _region(arena, 0, 1, _GM, layout.bias_offset, 1, n, odt)
    if resident:
        _flags(arena, tile_start[lead_t == 1], OP_WAIT, _M, _MTE1,
               EV_B_RESIDENT_FREE)
        _flags(arena, (ep + rpe)[trail_t == 1], OP_SET, _M, _MTE1,
               EV_B_RESIDENT_FREE)
        b_stages, b_feeds = np.flatnonzero(b_s), np.flatnonzero(b_f)
    else:
        b_stages = b_feeds = slice(None)

    # ---- MTE2: stage A strip and B panel into L1 (one block per stage) ----
    slot_s = sigma % 2
    _flags(arena, stage_start[w1_s == 1], OP_WAIT, _MTE1, _MTE2, EV_L1_STAGE_FREE)
    pos = stage_start + w1_s
    _copy(arena, pos, _MTE2)
    rn_s = rn_t[tau_s]
    if functional:
        a_d0 = rm_t[tau_s]
        a_gm_off = (layout.a_offset
                    + (om_t[tau_s] * tm * k + ok_s * k_stage) * bits // 8)
        _region(arena, pos, 0, _L1, slot_s * a_stage_b, a_d0, rk_stage_s, dt)
        _region(arena, pos, 1, _GM, a_gm_off, a_d0, rk_stage_s, dt,
                pitch=k * bits // 8)
    else:
        a_rows_full = max(1, int(round(tm * a_bytes_scale)))
        a_rows_last = max(1, int(round(rm_last * a_bytes_scale)))
        a_d0 = np.where(om_t[tau_s] == tiles_m - 1, a_rows_last, a_rows_full)
        _region(arena, pos, 0, _L1, slot_s * a_stage_b, a_d0, rk_stage_s, dt)
        _region(arena, pos, 1, _GM, 0, a_d0, rk_stage_s, dt)
    b_pos = (pos + 1)[b_stages]
    _copy(arena, b_pos, _MTE2)
    b_l1_off = (l1_b_base + slot_s * b_stage_b)[b_stages]
    if sparse:
        comp = _zvc_bytes(rk_stage_s * rn_s, weight_density, dtype)
        _region(arena, b_pos, 0, _L1, b_l1_off, comp, 0, _INT8_ID)
        _region(arena, b_pos, 1, _GM, 0, comp, 0, _INT8_ID)
    else:
        rk_b, rn_b = rk_stage_s[b_stages], rn_s[b_stages]
        _region(arena, b_pos, 0, _L1, b_l1_off, rk_b, rn_b, dt)
        if functional:
            b_gm_off = (layout.b_offset
                        + (ok_s * k_stage * n + on_t[tau_s] * tn) * bits // 8)
            _region(arena, b_pos, 1, _GM, b_gm_off[b_stages], rk_b, rn_b,
                    dt, pitch=n * bits // 8)
        else:
            _region(arena, b_pos, 1, _GM, 0, rk_b, rn_b, dt)
    _flags(arena, pos + 1 + b_s, OP_SET, _MTE2, _MTE1, EV_L1_STAGE_READY)
    _flags(arena, pos + 2 + b_s, OP_WAIT, _MTE2, _MTE1, EV_L1_STAGE_READY)
    _flags(arena, stage_start + rps - 1, OP_SET, _MTE1, _MTE2, EV_L1_STAGE_FREE)

    # ---- MTE1 + cube: feed L0 tiles and fire matmuls (per feed) ----
    # L0B is double buffered per feed, except under residency, where a
    # tile's B feeds each keep their own slot for the whole column.
    # Resident B moves ahead of the A feed; otherwise A goes first.
    fslot = phi % 2
    slot_f = sigma_f % 2
    l0b_off = (feed_in_tile if resident else fslot) * b_feed_b
    _flags(arena, feed_start[w3_f == 1], OP_WAIT, _M, _MTE1, EV_L0_FEED_FREE)
    pos = feed_start + w3_f
    if resident:
        a_pos, b_pos = pos + b_f, pos[b_feeds]
    else:
        a_pos, b_pos = pos, pos + 1
    _copy(arena, a_pos, _MTE1)
    _region(arena, a_pos, 0, _L0A, fslot * a_feed_b, rm_f, rk_f, dt)
    _region(arena, a_pos, 1, _L1, slot_f * a_stage_b + ik_f * tk * bits // 8,
            rm_f, rk_f, dt, pitch=rk_stage_f * bits // 8)
    rk_b, rn_b = rk_f[b_feeds], rn_f[b_feeds]
    _region(arena, b_pos, 0, _L0B, l0b_off[b_feeds], rk_b, rn_b, dt)
    if sparse:
        arena.kind[b_pos] = OP_DECOMP
        arena.pipe[b_pos] = _MTE1
        _region(arena, b_pos, 1, _L1, l1_b_base + slot_f * b_stage_b,
                _zvc_bytes(rk_f * rn_f, weight_density, dtype), 0, _INT8_ID)
    else:
        _copy(arena, b_pos, _MTE1)
        b_src_off = (l1_b_base + slot_f * b_stage_b
                     + ik_f * tk * rn_f * bits // 8)
        _region(arena, b_pos, 1, _L1, b_src_off[b_feeds], rk_b, rn_b, dt)
    pos = pos + 1 + b_f
    _flags(arena, pos, OP_SET, _MTE1, _M, EV_L0_FEED_READY)
    _flags(arena, pos + 1, OP_WAIT, _MTE1, _M, EV_L0_FEED_READY)
    _flags(arena, (pos + 2)[w5_f == 1], OP_WAIT, _V, _M, EV_L0C_TILE_FREE)
    pos = pos + 2 + w5_f
    arena.kind[pos] = OP_CUBE
    arena.pipe[pos] = _M
    arena.accumulate[pos] = (~first_f).astype(np.int8)
    _region(arena, pos, 0, _L0C, (tau_f % 2) * c_tile_b, rm_f, rn_f, adt)
    _region(arena, pos, 1, _L0A, fslot * a_feed_b, rm_f, rk_f, dt)
    _region(arena, pos, 2, _L0B, l0b_off, rk_f, rn_f, dt)
    _flags(arena, pos + 1, OP_SET, _M, _MTE1, EV_L0_FEED_FREE)

    # ---- vector epilogue + MTE3 store (per tile) ----
    cslot = tau_t % 2
    _flags(arena, ep, OP_SET, _M, _V, EV_L0C_TILE_READY)
    _flags(arena, ep + 1, OP_WAIT, _M, _V, EV_L0C_TILE_READY)
    _flags(arena, (ep + 2)[w7_t == 1], OP_WAIT, _MTE3, _V, EV_UB_TILE_FREE)
    cast = ep + 2 + w7_t
    _vector(arena, cast, VectorOpcode.CAST)
    _region(arena, cast, 0, _UB, cslot * ub_tile_b, rm_t, rn_t, odt)
    _region(arena, cast, 1, _L0C, cslot * c_tile_b, rm_t, rn_t, adt)
    _flags(arena, cast + 1, OP_SET, _V, _M, EV_L0C_TILE_FREE)
    if has_bias:
        bpos = cast + 2
        _vector(arena, bpos, VectorOpcode.ADD)
        _region(arena, bpos, 0, _UB, cslot * ub_tile_b, rm_t, rn_t, odt)
        _region(arena, bpos, 1, _UB, cslot * ub_tile_b, rm_t, rn_t, odt)
        _region(arena, bpos, 2, _UB, ub_bias_off + on_t * tn * out_bits // 8,
                1, rn_t, odt)
    for j, post in enumerate(post_ops):
        ppos = cast + 2 + has_bias + j
        _vector(arena, ppos, post.op, post.scalar)
        _region(arena, ppos, 0, _UB, cslot * ub_tile_b, rm_t, rn_t, odt)
        _region(arena, ppos, 1, _UB, cslot * ub_tile_b, rm_t, rn_t, odt)
    tail = cast + 2 + has_bias + P
    _flags(arena, tail, OP_SET, _V, _MTE3, EV_UB_TILE_READY)
    _flags(arena, tail + 1, OP_WAIT, _V, _MTE3, EV_UB_TILE_READY)
    cpos = tail + 2
    _copy(arena, cpos, _MTE3)
    if functional:
        c_gm_off = (layout.c_offset
                    + (om_t * tm * n + on_t * tn) * out_bits // 8)
        _region(arena, cpos, 0, _GM, c_gm_off, rm_t, rn_t, odt,
                pitch=n * out_bits // 8)
    else:
        _region(arena, cpos, 0, _GM, 0, rm_t, rn_t, odt)
    _region(arena, cpos, 1, _UB, cslot * ub_tile_b, rm_t, rn_t, odt)
    _flags(arena, cpos + 1, OP_SET, _MTE3, _V, EV_UB_TILE_FREE)

    for off, (src, dst, ev) in enumerate(drains):
        _flags(arena, body_rows + off, OP_WAIT, src, dst, ev)

    return Program.from_arena(arena, name=f"gemm_{m}x{k}x{n}_{config.name}")


def lower_vector_arena(work: VectorWork, config: CoreConfig, tag: str,
                       load_input: bool, store_output: bool) -> Program:
    """The ``lower_vector_work`` stream as one columnar arena."""
    bits = work.dtype.bits
    dt = DTYPE_ID[work.dtype.name]
    chunk_elems = max(1, int(config.ub_bytes / (2 * work.dtype.bytes)))
    C = math.ceil(work.elems / chunk_elems) if work.elems else 0
    name = f"vector_{work.elems}x{work.passes}_{config.name}"
    passes = work.passes
    ld = 1 if load_input else 0
    st = 1 if store_output else 0

    i = np.arange(C, dtype=_I64)
    ce = np.where(i == C - 1, work.elems - (C - 1) * chunk_elems, chunk_elems)
    slot_off = (i % 2) * (chunk_elems * bits // 8)
    w0 = (i >= 2).astype(_I64) if load_input else np.zeros(C, _I64)

    rpc = ld * (4 + w0) + passes + st * 3
    start = np.cumsum(rpc) - rpc
    n_drain = min(2, C) if load_input else 0
    body_rows = int(np.sum(rpc))
    arena = InstructionArena(body_rows + n_drain,
                             tags=["", tag] if tag else [""])
    if tag:
        arena.tag_id[:] = 1

    if load_input:
        _flags(arena, start[w0 == 1], OP_WAIT, _V, _MTE2, EV_VEC_SLOT_FREE)
        pos = start + w0
        _copy(arena, pos, _MTE2)
        _region(arena, pos, 0, _UB, slot_off, ce, 0, dt)
        _region(arena, pos, 1, _GM, 0, ce, 0, dt)
        _flags(arena, pos + 1, OP_SET, _MTE2, _V, EV_VEC_CHUNK_READY)
        _flags(arena, pos + 2, OP_WAIT, _MTE2, _V, EV_VEC_CHUNK_READY)
        pbase = pos + 3
    else:
        pbase = start
    for j in range(passes):
        pos = pbase + j
        _vector(arena, pos, VectorOpcode.MULS, 1.0)
        _region(arena, pos, 0, _UB, slot_off, ce, 0, dt)
        _region(arena, pos, 1, _UB, slot_off, ce, 0, dt)
    pos = pbase + passes
    if load_input:
        _flags(arena, pos, OP_SET, _V, _MTE2, EV_VEC_SLOT_FREE)
        pos = pos + 1
    if store_output:
        _flags(arena, pos, OP_SET, _V, _MTE3, EV_VEC_RESULT_READY)
        _flags(arena, pos + 1, OP_WAIT, _V, _MTE3, EV_VEC_RESULT_READY)
        _copy(arena, pos + 2, _MTE3)
        _region(arena, pos + 2, 0, _GM, 0, ce, 0, dt)
        _region(arena, pos + 2, 1, _UB, slot_off, ce, 0, dt)
    for off in range(n_drain):
        _flags(arena, body_rows + off, OP_WAIT, _V, _MTE2, EV_VEC_SLOT_FREE)

    return Program.from_arena(arena, name=name)
