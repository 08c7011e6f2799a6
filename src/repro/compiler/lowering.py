"""Lowering: workloads -> double-buffered, flag-synchronized programs.

This is the compiler tier that produces the Figure 3 execution pattern:
all five pipes (MTE2 inbound, MTE1 feed, cube, vector, MTE3 outbound) run
concurrently, coupled only by set_flag/wait_flag pairs, with every buffer
double-buffered so the pipeline never serializes on a slot.

Event-id map (one purpose per id, FIFO per channel):

====  =================  ==========================================
id    channel            meaning
====  =================  ==========================================
0     MTE2 -> MTE1       L1 stage (A strip + B panel) ready
1     MTE1 -> MTE2       L1 stage slot released
2     MTE1 -> M          L0A/L0B feed ready
3     M -> MTE1          L0 feed slot released
4     M -> V             L0C output tile complete
5     V -> M             L0C slot released
6     V -> MTE3          UB tile ready
7     MTE3 -> V          UB slot released
9     M -> MTE1          resident B column retired (weight-stationary)
====  =================  ==========================================

The emitter behind every entry point here is the columnar one in
:mod:`repro.compiler.arena_lowering`; every returned program is
arena-built (``lower_workload``'s from its sub-programs' arenas, as
parts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..config.core_configs import CoreConfig
from ..dtypes import DType, FP16
from ..errors import CompileError
from ..graph.workload import OpWorkload, VectorWork
from ..isa.instructions import VectorOpcode
from ..isa.program import Program
from .arena_lowering import lower_gemm_arena, lower_vector_arena
from .tiling import Tiling, choose_tiling, tiling_space

__all__ = ["GemmLayout", "PostOp", "clear_lowering_memo", "lower_gemm",
           "lower_vector_work", "lower_workload", "lowering_stats",
           "reset_lowering_stats"]

_LOWERING_STATS = {"memo_hits": 0}


def lowering_stats() -> dict:
    """Lowering counters for this process."""
    return dict(_LOWERING_STATS)


def reset_lowering_stats() -> None:
    for k in _LOWERING_STATS:
        _LOWERING_STATS[k] = 0


# Lowering is pure given its arguments minus the tag, and real graphs
# repeat structures relentlessly (BERT's 12 encoder blocks, resnet's
# stages), so lowered arenas (a workload's parts) are memoized on
# those arguments as the caller passed them: a GEMM's key holds the
# requested ``tiling`` and ``b_resident``, so a hit runs no tiling
# search and resolves no residency, and this memo is the only cache of
# tiling choices.
# A hit is retagged via the zero-copy :meth:`InstructionArena.retagged` —
# column arrays are shared, never mutated after lowering, so sharing is
# safe and downstream identity-keyed caches (``Program.validate``'s
# memo) hit for free.  Fault campaigns need no bypass: stall and sync
# faults perturb copies of the drain's cost and match columns, never a
# lowered arena.
_ARENA_MEMO: dict = {}
_ARENA_MEMO_CAP = 1024


def _memo_get(key):
    hit = _ARENA_MEMO.get(key)
    if hit is not None:
        _LOWERING_STATS["memo_hits"] += 1
    return hit


def _memo_put(key, arena) -> None:
    _ARENA_MEMO[key] = arena
    while len(_ARENA_MEMO) > _ARENA_MEMO_CAP:
        _ARENA_MEMO.pop(next(iter(_ARENA_MEMO)))


def clear_lowering_memo() -> None:
    """Drop all memoized arenas (tests, and fork-worker hygiene)."""
    _ARENA_MEMO.clear()


@dataclass(frozen=True)
class GemmLayout:
    """GM placement for functional GEMM execution.

    A is (m, k) row-major at ``a_offset``; B is (k, n) at ``b_offset``;
    C is (m, n) at ``c_offset`` in the output dtype; ``bias_offset``
    optionally locates an (n,)-vector added to every output row.
    """

    a_offset: int
    b_offset: int
    c_offset: int
    bias_offset: Optional[int] = None


@dataclass(frozen=True)
class PostOp:
    """An elementwise epilogue applied to each output tile in UB."""

    op: VectorOpcode
    scalar: Optional[float] = None


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
    """Lower one M x K x N GEMM to a pipelined instruction stream.

    The default schedule walks output tiles row-major.  Per tile, MTE2
    stages an A strip and a B panel into L1 per K stage, MTE1 feeds
    L0A/L0B tiles, the cube accumulates into L0C, the vector unit casts
    (plus bias and ``post_ops``) into UB, and MTE3 stores to GM.

    Args:
        layout: GM placement — provide it for functional execution; omit
            it for performance-only lowering (regions then start at offset
            0 and may alias, which the scheduler never reads).
        post_ops: elementwise epilogue per output tile (activation etc.).
        weight_density: when set (<1), B tiles travel ZVC-compressed from
            GM through L1 and are expanded by the MTE *decomp* module —
            performance-only (Section 2.2 sparse path).
        a_bytes_scale: scales the bytes MTE2 fetches for A from GM.  Conv
            lowering passes the inverse im2col expansion factor: the raw
            image is fetched once while the expanded matrix only exists
            between L1 and L0A.
        b_resident: weight-stationary schedule — when the whole K-strip
            of B for one output column fits L0B, pin it there and stream
            A tiles past it (Section 2.5's reason the A bus is wider than
            the B bus).  Falls back to the default schedule when B does
            not fit.
    """
    if weight_density is not None and layout is not None:
        raise CompileError("compressed weights are performance-only lowering")
    if not 0 < a_bytes_scale <= 1:
        raise CompileError(f"a_bytes_scale must be in (0, 1], got {a_bytes_scale}")
    out_dtype = out_dtype or dtype
    name = f"gemm_{m}x{k}x{n}_{config.name}"
    key = ("gemm", config, dtype, out_dtype, m, k, n, tiling,
           tuple(post_ops), layout, a_bytes_scale, weight_density, b_resident)
    hit = _memo_get(key)
    if hit is not None:
        return Program.from_arena(hit.retagged(tag), name=name)
    resident = b_resident and weight_density is None
    if tiling is None and resident:
        tiling = _residency_tiling(m, k, n, config, dtype)
    tiling = tiling or choose_tiling(m, k, n, config, dtype)
    if resident:
        b_strip_bytes = int(math.ceil(k / tiling.tk) * tiling.tk * tiling.tn
                            * dtype.bytes)
        resident = b_strip_bytes <= config.l0b_bytes
    program = lower_gemm_arena(m, k, n, config, dtype, out_dtype, tag,
                               tiling, post_ops, layout, a_bytes_scale,
                               weight_density, resident)
    _memo_put(key, program._arena)
    return program


def _residency_tiling(m: int, k: int, n: int, config: CoreConfig,
                      dtype: DType) -> Optional[Tiling]:
    """Best tiling whose whole B K-strip fits L0B, or None: the first
    cheapest row of the tiling space under a B-strip mask."""
    space = tiling_space(m, k, n, config, dtype)
    return space.cheapest(np.ceil(k / space.tk) * space.tk * space.tn
                          * dtype.bytes <= config.l0b_bytes)


def lower_vector_work(work: VectorWork, config: CoreConfig, tag: str = "",
                      load_input: bool = True,
                      store_output: bool = True) -> Program:
    """Lower a pure vector workload to a UB-tiled streaming program.

    Each chunk streams GM -> UB (MTE2), runs ``passes`` datapath passes,
    and streams back UB -> GM (MTE3); chunks double-buffer through UB.
    Every pass is emitted as one 1-pass instruction, which charges exactly
    ``passes * elems`` element-passes — the quantity the workload model
    defines.
    """
    key = ("vec", config, work, load_input, store_output)
    hit = _memo_get(key)
    if hit is not None:
        return Program.from_arena(
            hit.retagged(tag),
            name=f"vector_{work.elems}x{work.passes}_{config.name}")
    program = lower_vector_arena(work, config, tag, load_input, store_output)
    _memo_put(key, program._arena)
    return program


def lower_workload(work: OpWorkload, config: CoreConfig,
                   tag: Optional[str] = None,
                   a_bytes_scale_for_gemms: float = 1.0) -> Program:
    """Lower an op workload (GEMMs + vector work) to one program.

    Performance-only: the program is its sub-programs end to end; each
    is internally flag-balanced, so the concatenation is a legal
    program.  It keeps them as parts (:meth:`Program.from_parts`) and
    concatenates them only when its ``arena`` is read, so the timing
    engine concatenates a batch of lowered workloads in one pass.
    """
    tag = tag if tag is not None else work.name
    name = f"{work.name}_{config.name}"
    key = ("workload", config, work.gemms, work.vector,
           a_bytes_scale_for_gemms)
    hit = _memo_get(key)
    if hit is not None:
        return Program.from_parts(
            [(arena.retagged(tag), reps) for arena, reps in hit], name=name)
    # The sub-program memo hands structurally identical adjacent layers
    # the *same* arena object — fold them into the repeat count so concat
    # records one wide repeat block (better steady-state extrapolation)
    # instead of several narrow ones.
    parts: List[list] = []
    subs = [(lower_gemm(g.m, g.k, g.n, config, dtype=g.dtype, tag=tag,
                        a_bytes_scale=a_bytes_scale_for_gemms)._arena,
             g.count) for g in work.gemms]
    subs += [(lower_vector_work(v, config, tag=tag)._arena, 1)
             for v in work.vector]
    for arena, count in subs:
        if parts and arena is parts[-1][0]:
            parts[-1][1] += count
        else:
            parts.append([arena, count])
    program = Program.from_parts([tuple(part) for part in parts], name=name)
    _memo_put(key, program.parts)
    return program
