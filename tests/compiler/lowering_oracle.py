"""The per-object emitters: the oracle the lowering suites compare to.

Each function walks the tile grid in nested Python loops and builds one
frozen instruction object per row — the original, deliberately plain
implementation of the schedules in :mod:`repro.compiler.lowering`.  The
production lowering computes the same instruction streams with columnar
index arithmetic (:mod:`repro.compiler.arena_lowering`); agreement,
instruction for instruction, is what tests/compiler/test_lowering_arena.py
and tests/compiler/test_lowering_memo.py assert.  The oracle shares
only the tiling choice and the GM layout types with production.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import List, Optional, Sequence

from repro.compiler.lowering import GemmLayout, PostOp, _resident_tilings
from repro.compiler.tiling import Tiling, choose_tiling, tiling_space
from repro.config.core_configs import CoreConfig
from repro.dtypes import DType, FP16, INT8, accumulator_for
from repro.errors import CompileError
from repro.graph.workload import OpWorkload, VectorWork
from repro.isa.channels import (
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
from repro.isa.instructions import (
    CopyInstr,
    CubeMatmul,
    DecompressInstr,
    Instruction,
    SetFlag,
    VectorInstr,
    VectorOpcode,
    WaitFlag,
)
from repro.isa.memref import MemSpace, Region
from repro.isa.pipes import Pipe
from repro.isa.program import Program
from repro.memory.zvc import zvc_compressed_nbytes

__all__ = ["lower_gemm", "lower_vector_work", "lower_workload"]

# Flag instructions are immutable and tiny, and a compiled tile loop
# emits the same (src, dst, event, tag) flag thousands of times — intern
# them so repeated emissions share one object.
_FLAG_CACHE: dict = {}


def _interned_flag(cls, src: Pipe, dst: Pipe, event: int, tag: str):
    key = (cls, src, dst, event, tag)
    instr = _FLAG_CACHE.get(key)
    if instr is None:
        instr = cls(src_pipe=src, dst_pipe=dst, event_id=event, tag=tag)
        _FLAG_CACHE[key] = instr
    return instr


class _Emitter:
    """Accumulates instructions and balances flag channels at the end."""

    def __init__(self, name: str, tag: str) -> None:
        self.instrs: List[Instruction] = []
        self.tag = tag
        self.name = name
        self._sets: Counter = Counter()
        self._waits: Counter = Counter()

    def emit(self, instr: Instruction) -> None:
        self.instrs.append(instr)

    def set_flag(self, src: Pipe, dst: Pipe, event: int) -> None:
        self._sets[(src, dst, event)] += 1
        self.emit(_interned_flag(SetFlag, src, dst, event, self.tag))

    def wait_flag(self, src: Pipe, dst: Pipe, event: int) -> None:
        self._waits[(src, dst, event)] += 1
        self.emit(_interned_flag(WaitFlag, src, dst, event, self.tag))

    def finish(self) -> Program:
        """Drain unmatched release flags — the kernel-end barrier."""
        for (src, dst, event), count in sorted(
            self._sets.items(), key=lambda kv: str(kv[0])
        ):
            for _ in range(count - self._waits[(src, dst, event)]):
                self.wait_flag(src, dst, event)
        return Program(self.instrs, name=self.name)


def lower_gemm(
    m: int,
    k: int,
    n: int,
    config: CoreConfig,
    dtype: DType = FP16,
    out_dtype: Optional[DType] = None,
    tag: str = "",
    tiling: Optional[Tiling] = None,
    post_ops: Sequence[PostOp] = (),
    layout: Optional[GemmLayout] = None,
    weight_density: Optional[float] = None,
    a_bytes_scale: float = 1.0,
    b_resident: bool = False,
) -> Program:
    """Object-built twin of :func:`repro.compiler.lowering.lower_gemm`."""
    if weight_density is not None and layout is not None:
        raise CompileError("compressed weights are performance-only lowering")
    if not 0 < a_bytes_scale <= 1:
        raise CompileError(f"a_bytes_scale must be in (0, 1], got {a_bytes_scale}")
    out_dtype = out_dtype or dtype
    if tiling is None and b_resident and weight_density is None:
        tiling = _resident_tilings(tiling_space(m, k, n, config, dtype),
                                   [(m, k, n, dtype)], config)[0]
    tiling = tiling or choose_tiling(m, k, n, config, dtype)
    acc = accumulator_for(dtype)
    functional = layout is not None

    tm, tk, tn, k_stage = tiling.tm, tiling.tk, tiling.tn, tiling.k_stage
    tiles_m = math.ceil(m / tm)
    tiles_n = math.ceil(n / tn)
    k_stages = math.ceil(k / k_stage)

    # Scratchpad slot offsets (double buffered).
    a_stage_b = int(tm * k_stage * dtype.bytes)
    b_stage_b = int(k_stage * tn * dtype.bytes)
    l1_a = (0, a_stage_b)
    l1_b = (2 * a_stage_b, 2 * a_stage_b + b_stage_b)
    a_feed_b = int(tm * tk * dtype.bytes)
    b_feed_b = int(tk * tn * dtype.bytes)
    c_tile_b = int(tm * tn * acc.bytes)
    ub_tile_b = int(tm * tn * out_dtype.bytes)
    ub_bias_off = 2 * ub_tile_b  # bias row staged after the two tile slots

    e = _Emitter(f"gemm_{m}x{k}x{n}_{config.name}", tag)

    if functional and layout.bias_offset is not None:
        bias_gm = Region(MemSpace.GM, layout.bias_offset, (1, n), out_dtype)
        bias_ub = Region(MemSpace.UB, ub_bias_off, (1, n), out_dtype)
        e.emit(CopyInstr(dst=bias_ub, src=bias_gm, tag=tag))

    b_strip_bytes = int(math.ceil(k / tk) * tk * tn * dtype.bytes)
    if (b_resident and weight_density is None
            and b_strip_bytes <= config.l0b_bytes):
        _emit_b_resident(e, m, k, n, config, dtype, out_dtype, tag, tiling,
                         post_ops, layout, a_bytes_scale)
        return e.finish()

    stage_idx = feed_idx = tile_idx = 0
    for om in range(tiles_m):
        rm = min(tm, m - om * tm)  # actual rows in this tile
        for on in range(tiles_n):
            rn = min(tn, n - on * tn)
            c_slot = tile_idx % 2
            c_reg = Region(MemSpace.L0C, c_slot * c_tile_b, (rm, rn), acc)
            first_matmul_of_tile = True
            for ok in range(k_stages):
                rk_stage = min(k_stage, k - ok * k_stage)
                slot = stage_idx % 2
                # ---- MTE2: stage A strip and B panel into L1 ----
                if stage_idx >= 2:
                    e.wait_flag(Pipe.MTE1, Pipe.MTE2, EV_L1_STAGE_FREE)
                a_l1 = Region(MemSpace.L1, l1_a[slot], (rm, rk_stage), dtype)
                b_l1 = Region(MemSpace.L1, l1_b[slot], (rk_stage, rn), dtype)
                if functional:
                    a_gm = Region(
                        MemSpace.GM,
                        layout.a_offset
                        + int((om * tm * k + ok * k_stage) * dtype.bytes),
                        (rm, rk_stage), dtype,
                        pitch=int(k * dtype.bytes),
                    )
                    b_gm = Region(
                        MemSpace.GM,
                        layout.b_offset
                        + int((ok * k_stage * n + on * tn) * dtype.bytes),
                        (rk_stage, rn), dtype,
                        pitch=int(n * dtype.bytes),
                    )
                    e.emit(CopyInstr(dst=a_l1, src=a_gm, tag=tag))
                    e.emit(CopyInstr(dst=b_l1, src=b_gm, tag=tag))
                else:
                    a_rows = max(1, int(round(rm * a_bytes_scale)))
                    a_gm = Region(MemSpace.GM, 0, (a_rows, rk_stage), dtype)
                    e.emit(CopyInstr(
                        dst=Region(MemSpace.L1, l1_a[slot], (a_rows, rk_stage), dtype),
                        src=a_gm, tag=tag))
                    if weight_density is not None:
                        comp = max(1, int(zvc_compressed_nbytes(
                            rk_stage * rn, weight_density, dtype.bytes)))
                        e.emit(CopyInstr(
                            dst=Region(MemSpace.L1, l1_b[slot], (comp,), INT8),
                            src=Region(MemSpace.GM, 0, (comp,), INT8), tag=tag))
                    else:
                        e.emit(CopyInstr(
                            dst=b_l1, src=Region(MemSpace.GM, 0, (rk_stage, rn), dtype),
                            tag=tag))
                e.set_flag(Pipe.MTE2, Pipe.MTE1, EV_L1_STAGE_READY)
                # ---- MTE1: feed L0 tiles from this stage ----
                e.wait_flag(Pipe.MTE2, Pipe.MTE1, EV_L1_STAGE_READY)
                for ik in range(math.ceil(rk_stage / tk)):
                    rk = min(tk, rk_stage - ik * tk)
                    fslot = feed_idx % 2
                    if feed_idx >= 2:
                        e.wait_flag(Pipe.M, Pipe.MTE1, EV_L0_FEED_FREE)
                    a_l0 = Region(MemSpace.L0A, fslot * a_feed_b, (rm, rk), dtype)
                    b_l0 = Region(MemSpace.L0B, fslot * b_feed_b, (rk, rn), dtype)
                    a_src = Region(MemSpace.L1, l1_a[slot] + int(ik * tk * dtype.bytes),
                                   (rm, rk), dtype,
                                   pitch=int(rk_stage * dtype.bytes))
                    e.emit(CopyInstr(dst=a_l0, src=a_src, tag=tag))
                    if weight_density is not None:
                        comp = max(1, int(zvc_compressed_nbytes(
                            rk * rn, weight_density, dtype.bytes)))
                        e.emit(DecompressInstr(
                            dst=b_l0,
                            src=Region(MemSpace.L1, l1_b[slot], (comp,), INT8),
                            tag=tag))
                    else:
                        b_src = Region(MemSpace.L1,
                                       l1_b[slot] + int(ik * tk * rn * dtype.bytes),
                                       (rk, rn), dtype)
                        e.emit(CopyInstr(dst=b_l0, src=b_src, tag=tag))
                    e.set_flag(Pipe.MTE1, Pipe.M, EV_L0_FEED_READY)
                    # ---- cube ----
                    e.wait_flag(Pipe.MTE1, Pipe.M, EV_L0_FEED_READY)
                    if first_matmul_of_tile and tile_idx >= 2:
                        e.wait_flag(Pipe.V, Pipe.M, EV_L0C_TILE_FREE)
                    e.emit(CubeMatmul(a=a_l0, b=b_l0, c=c_reg,
                                      accumulate=not first_matmul_of_tile,
                                      tag=tag))
                    first_matmul_of_tile = False
                    e.set_flag(Pipe.M, Pipe.MTE1, EV_L0_FEED_FREE)
                    feed_idx += 1
                e.set_flag(Pipe.MTE1, Pipe.MTE2, EV_L1_STAGE_FREE)
                stage_idx += 1
            # ---- vector epilogue ----
            e.set_flag(Pipe.M, Pipe.V, EV_L0C_TILE_READY)
            e.wait_flag(Pipe.M, Pipe.V, EV_L0C_TILE_READY)
            if tile_idx >= 2:
                e.wait_flag(Pipe.MTE3, Pipe.V, EV_UB_TILE_FREE)
            ub_reg = Region(MemSpace.UB, c_slot * ub_tile_b, (rm, rn), out_dtype)
            e.emit(VectorInstr(op=VectorOpcode.CAST, dst=ub_reg, srcs=(c_reg,),
                               tag=tag))
            e.set_flag(Pipe.V, Pipe.M, EV_L0C_TILE_FREE)
            if functional and layout.bias_offset is not None:
                bias_slice = Region(
                    MemSpace.UB,
                    ub_bias_off + int(on * tn * out_dtype.bytes),
                    (1, rn), out_dtype,
                )
                e.emit(VectorInstr(op=VectorOpcode.ADD, dst=ub_reg,
                                   srcs=(ub_reg, bias_slice), tag=tag))
            for post in post_ops:
                e.emit(VectorInstr(op=post.op, dst=ub_reg, srcs=(ub_reg,),
                                   scalar=post.scalar, tag=tag))
            e.set_flag(Pipe.V, Pipe.MTE3, EV_UB_TILE_READY)
            # ---- MTE3: store ----
            e.wait_flag(Pipe.V, Pipe.MTE3, EV_UB_TILE_READY)
            if functional:
                c_gm = Region(
                    MemSpace.GM,
                    layout.c_offset + int((om * tm * n + on * tn) * out_dtype.bytes),
                    (rm, rn), out_dtype,
                    pitch=int(n * out_dtype.bytes),
                )
            else:
                c_gm = Region(MemSpace.GM, 0, (rm, rn), out_dtype)
            e.emit(CopyInstr(dst=c_gm, src=ub_reg, tag=tag))
            e.set_flag(Pipe.MTE3, Pipe.V, EV_UB_TILE_FREE)
            tile_idx += 1

    return e.finish()


def _emit_b_resident(e: _Emitter, m: int, k: int, n: int,
                     config: CoreConfig, dtype: DType, out_dtype: DType,
                     tag: str, tiling: Tiling, post_ops: Sequence[PostOp],
                     layout: Optional[GemmLayout],
                     a_bytes_scale: float) -> None:
    """Weight-stationary schedule: per output column (on), pin every B
    tile of the K strip in L0B once, then stream all A strips past it.

    Event-id additions over the default schedule: id 9 on M -> MTE1
    signals that a column's matmuls retired, so the next column may
    overwrite the resident B tiles.
    """
    acc = accumulator_for(dtype)
    functional = layout is not None
    tm, tk, tn, k_stage = tiling.tm, tiling.tk, tiling.tn, tiling.k_stage
    tiles_m = math.ceil(m / tm)
    tiles_n = math.ceil(n / tn)
    k_stages = math.ceil(k / k_stage)

    a_stage_b = int(tm * k_stage * dtype.bytes)
    b_stage_b = int(k_stage * tn * dtype.bytes)
    l1_a = (0, a_stage_b)
    l1_b = (2 * a_stage_b, 2 * a_stage_b + b_stage_b)
    a_feed_b = int(tm * tk * dtype.bytes)
    b_feed_b = int(tk * tn * dtype.bytes)
    c_tile_b = int(tm * tn * acc.bytes)
    ub_tile_b = int(tm * tn * out_dtype.bytes)

    stage_idx = feed_idx = tile_idx = 0
    for on in range(tiles_n):
        rn = min(tn, n - on * tn)
        if on > 0:
            e.wait_flag(Pipe.M, Pipe.MTE1, EV_B_RESIDENT_FREE)  # resident B free to replace
        for om in range(tiles_m):
            rm = min(tm, m - om * tm)
            c_slot = tile_idx % 2
            c_reg = Region(MemSpace.L0C, c_slot * c_tile_b, (rm, rn), acc)
            first_matmul_of_tile = True
            global_feed = 0  # index into the resident L0B tile array
            for ok in range(k_stages):
                rk_stage = min(k_stage, k - ok * k_stage)
                slot = stage_idx % 2
                if stage_idx >= 2:
                    e.wait_flag(Pipe.MTE1, Pipe.MTE2, EV_L1_STAGE_FREE)
                a_l1 = Region(MemSpace.L1, l1_a[slot], (rm, rk_stage), dtype)
                if functional:
                    a_gm = Region(
                        MemSpace.GM,
                        layout.a_offset
                        + int((om * tm * k + ok * k_stage) * dtype.bytes),
                        (rm, rk_stage), dtype, pitch=int(k * dtype.bytes))
                    e.emit(CopyInstr(dst=a_l1, src=a_gm, tag=tag))
                else:
                    a_rows = max(1, int(round(rm * a_bytes_scale)))
                    e.emit(CopyInstr(
                        dst=Region(MemSpace.L1, l1_a[slot],
                                   (a_rows, rk_stage), dtype),
                        src=Region(MemSpace.GM, 0, (a_rows, rk_stage), dtype),
                        tag=tag))
                if om == 0:
                    b_l1 = Region(MemSpace.L1, l1_b[slot], (rk_stage, rn),
                                  dtype)
                    if functional:
                        b_gm = Region(
                            MemSpace.GM,
                            layout.b_offset
                            + int((ok * k_stage * n + on * tn) * dtype.bytes),
                            (rk_stage, rn), dtype, pitch=int(n * dtype.bytes))
                        e.emit(CopyInstr(dst=b_l1, src=b_gm, tag=tag))
                    else:
                        e.emit(CopyInstr(
                            dst=b_l1,
                            src=Region(MemSpace.GM, 0, (rk_stage, rn), dtype),
                            tag=tag))
                e.set_flag(Pipe.MTE2, Pipe.MTE1, EV_L1_STAGE_READY)
                e.wait_flag(Pipe.MTE2, Pipe.MTE1, EV_L1_STAGE_READY)
                for ik in range(math.ceil(rk_stage / tk)):
                    rk = min(tk, rk_stage - ik * tk)
                    fslot = feed_idx % 2
                    if feed_idx >= 2:
                        e.wait_flag(Pipe.M, Pipe.MTE1, EV_L0_FEED_FREE)
                    a_l0 = Region(MemSpace.L0A, fslot * a_feed_b, (rm, rk),
                                  dtype)
                    a_src = Region(
                        MemSpace.L1, l1_a[slot] + int(ik * tk * dtype.bytes),
                        (rm, rk), dtype, pitch=int(rk_stage * dtype.bytes))
                    b_l0 = Region(MemSpace.L0B, global_feed * b_feed_b,
                                  (rk, rn), dtype)
                    if om == 0:
                        b_src = Region(
                            MemSpace.L1,
                            l1_b[slot] + int(ik * tk * rn * dtype.bytes),
                            (rk, rn), dtype)
                        e.emit(CopyInstr(dst=b_l0, src=b_src, tag=tag))
                    e.emit(CopyInstr(dst=a_l0, src=a_src, tag=tag))
                    e.set_flag(Pipe.MTE1, Pipe.M, EV_L0_FEED_READY)
                    e.wait_flag(Pipe.MTE1, Pipe.M, EV_L0_FEED_READY)
                    if first_matmul_of_tile and tile_idx >= 2:
                        e.wait_flag(Pipe.V, Pipe.M, EV_L0C_TILE_FREE)
                    e.emit(CubeMatmul(a=a_l0, b=b_l0, c=c_reg,
                                      accumulate=not first_matmul_of_tile,
                                      tag=tag))
                    first_matmul_of_tile = False
                    e.set_flag(Pipe.M, Pipe.MTE1, EV_L0_FEED_FREE)
                    feed_idx += 1
                    global_feed += 1
                e.set_flag(Pipe.MTE1, Pipe.MTE2, EV_L1_STAGE_FREE)
                stage_idx += 1
            # vector epilogue + store (identical to the default schedule)
            e.set_flag(Pipe.M, Pipe.V, EV_L0C_TILE_READY)
            e.wait_flag(Pipe.M, Pipe.V, EV_L0C_TILE_READY)
            if tile_idx >= 2:
                e.wait_flag(Pipe.MTE3, Pipe.V, EV_UB_TILE_FREE)
            ub_reg = Region(MemSpace.UB, c_slot * ub_tile_b, (rm, rn),
                            out_dtype)
            e.emit(VectorInstr(op=VectorOpcode.CAST, dst=ub_reg,
                               srcs=(c_reg,), tag=tag))
            e.set_flag(Pipe.V, Pipe.M, EV_L0C_TILE_FREE)
            if functional and layout.bias_offset is not None:
                bias_slice = Region(
                    MemSpace.UB,
                    2 * ub_tile_b + int(on * tn * out_dtype.bytes),
                    (1, rn), out_dtype)
                e.emit(VectorInstr(op=VectorOpcode.ADD, dst=ub_reg,
                                   srcs=(ub_reg, bias_slice), tag=tag))
            for post in post_ops:
                e.emit(VectorInstr(op=post.op, dst=ub_reg, srcs=(ub_reg,),
                                   scalar=post.scalar, tag=tag))
            e.set_flag(Pipe.V, Pipe.MTE3, EV_UB_TILE_READY)
            e.wait_flag(Pipe.V, Pipe.MTE3, EV_UB_TILE_READY)
            if functional:
                c_gm = Region(
                    MemSpace.GM,
                    layout.c_offset
                    + int((om * tm * n + on * tn) * out_dtype.bytes),
                    (rm, rn), out_dtype, pitch=int(n * out_dtype.bytes))
            else:
                c_gm = Region(MemSpace.GM, 0, (rm, rn), out_dtype)
            e.emit(CopyInstr(dst=c_gm, src=ub_reg, tag=tag))
            e.set_flag(Pipe.MTE3, Pipe.V, EV_UB_TILE_FREE)
            tile_idx += 1
        e.set_flag(Pipe.M, Pipe.MTE1, EV_B_RESIDENT_FREE)  # column retired


def lower_vector_work(work: VectorWork, config: CoreConfig, tag: str = "",
                      load_input: bool = True,
                      store_output: bool = True) -> Program:
    """Object-built twin of :func:`repro.compiler.lowering.lower_vector_work`."""
    elem_b = work.dtype.bytes
    # Two in-flight chunks must fit UB.
    chunk_elems = max(1, int(config.ub_bytes / (2 * elem_b)))
    chunks = math.ceil(work.elems / chunk_elems) if work.elems else 0
    e = _Emitter(f"vector_{work.elems}x{work.passes}_{config.name}", tag)
    for i in range(chunks):
        ce = min(chunk_elems, work.elems - i * chunk_elems)
        slot = i % 2
        ub = Region(MemSpace.UB, slot * int(chunk_elems * elem_b), (ce,), work.dtype)
        if load_input:
            if i >= 2:
                e.wait_flag(Pipe.V, Pipe.MTE2, EV_VEC_SLOT_FREE)
            e.emit(CopyInstr(dst=ub, src=Region(MemSpace.GM, 0, (ce,), work.dtype),
                             tag=tag))
            e.set_flag(Pipe.MTE2, Pipe.V, EV_VEC_CHUNK_READY)
            e.wait_flag(Pipe.MTE2, Pipe.V, EV_VEC_CHUNK_READY)
        for _ in range(work.passes):
            e.emit(VectorInstr(op=VectorOpcode.MULS, dst=ub, srcs=(ub,),
                               scalar=1.0, tag=tag))
        if load_input:
            e.set_flag(Pipe.V, Pipe.MTE2, EV_VEC_SLOT_FREE)
        if store_output:
            e.set_flag(Pipe.V, Pipe.MTE3, EV_VEC_RESULT_READY)
            e.wait_flag(Pipe.V, Pipe.MTE3, EV_VEC_RESULT_READY)
            e.emit(CopyInstr(dst=Region(MemSpace.GM, 0, (ce,), work.dtype), src=ub,
                             tag=tag))
    return e.finish()


def lower_workload(work: OpWorkload, config: CoreConfig,
                   tag: Optional[str] = None,
                   a_bytes_scale_for_gemms: float = 1.0) -> Program:
    """Object-built twin of :func:`repro.compiler.lowering.lower_workload`:
    every sub-program's instructions, each GEMM repeated ``count`` times."""
    tag = tag if tag is not None else work.name
    instrs: List[Instruction] = []
    for g in work.gemms:
        sub = lower_gemm(g.m, g.k, g.n, config, dtype=g.dtype, tag=tag,
                         a_bytes_scale=a_bytes_scale_for_gemms)
        for _ in range(g.count):
            instrs.extend(sub.instructions)
    for v in work.vector:
        instrs.extend(lower_vector_work(v, config, tag=tag).instructions)
    return Program(instrs, name=f"{work.name}_{config.name}")
