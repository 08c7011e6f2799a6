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

Lowering runs in batches: ``lower_workload`` takes a compile's whole
list of missed layers, walks their requests over the memo in order, then
tiles every missed GEMM shape in one pass (:func:`tiling_spaces`) and
emits every missed GEMM and every missed vector stream in one pass each
(:mod:`repro.compiler.arena_lowering`).  ``lower_gemm`` and
``lower_vector_work`` are the batch of one.  Every returned program is
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
from ..errors import CompileError, IsaError, ReproError
from ..graph.workload import OpWorkload, VectorWork
from ..isa.instructions import VectorOpcode
from ..isa.program import Program
from .arena_lowering import lower_gemm_arena, lower_vector_arena
from .tiling import Tiling, TilingSpace, tiling_spaces

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


class _Pending:
    """A miss's memo value (an arena, or a workload's parts), filled in
    once its batch is emitted."""

    __slots__ = ("value",)


def _resolve(source):
    return source.value if isinstance(source, _Pending) else source


class _Batch:
    """One lowering batch: its requests walked over the memo in order,
    then every miss lowered at once.

    The walk (:meth:`gemm`, :meth:`vector`, :meth:`workload`) reads the
    memo without changing it.  It decides each request's hit or miss as
    lowering the requests one by one would, first-in-first-out evictions
    included, counts the hits and queues each miss with a pending value.
    :meth:`lower` then runs one tiling pass over the missed GEMMs'
    distinct shapes and one GEMM and one vector emission pass, fills in
    the pending values, and only then replays the walk's stores and hit
    count on the memo.

    The first request that fails ends the walk.  :meth:`lower` raises
    what lowering the requests in order raises first: a tiling error of
    an earlier miss, or of the failing request itself (its search runs
    before its emission), else the walk's error; the memo and its
    counters are left as they were.

    ``tiling``, ``post_ops``, ``layout``, ``weight_density`` and
    ``b_resident`` apply to every GEMM of the batch, and ``load_input``
    and ``store_output`` to every vector stream.
    """

    def __init__(self, config: CoreConfig, tiling: Optional[Tiling] = None,
                 post_ops: Sequence["PostOp"] = (),
                 layout: Optional["GemmLayout"] = None,
                 weight_density: Optional[float] = None,
                 b_resident: bool = False, load_input: bool = True,
                 store_output: bool = True) -> None:
        self.config = config
        self.tiling = tiling
        self.post_ops = tuple(post_ops)
        self.layout = layout
        self.weight_density = weight_density
        self.b_resident = b_resident
        self.load_input = load_input
        self.store_output = store_output
        self.gemms: List[tuple] = []      # (request, tag, pending)
        self.vectors: List[tuple] = []    # (work, tag, pending)
        self.workloads: List[tuple] = []  # (pending, tag, [(source, reps)])
        self.error: Optional[ReproError] = None
        self._stores: List[tuple] = []    # (key, pending), in walk order
        self._stored_at: dict = {}        # key -> its latest store
        self._hits = 0
        self._held = len(_ARENA_MEMO)
        self._order: Optional[dict] = None

    # -- the walk -------------------------------------------------------------

    def _get(self, key):
        """The memo's answer for ``key`` at this point of the walk: the
        memo's entries come first, then the walk's stores, and the
        oldest are evicted past the cap."""
        evicted = self._held + len(self._stores) - _ARENA_MEMO_CAP
        value = _ARENA_MEMO.get(key)
        if value is not None and evicted > 0:
            if self._order is None:
                self._order = {k: i for i, k in enumerate(_ARENA_MEMO)}
            if self._order[key] < evicted:
                value = None
        if value is None:
            # Only a key the memo lacks (or evicted) can have been stored.
            at = self._stored_at.get(key)
            if at is not None and self._held + at >= evicted:
                value = self._stores[at][1]
        if value is not None:
            self._hits += 1
        return value

    def _store(self, key) -> _Pending:
        pending = _Pending()
        self._stored_at[key] = len(self._stores)
        self._stores.append((key, pending))
        return pending

    def _fail(self, error: ReproError) -> None:
        self.error = error

    def gemm(self, m: int, k: int, n: int, dtype: DType, out_dtype: DType,
             a_bytes_scale: float, tag: str):
        """Walk one GEMM request: its memo source (an arena, or a pending
        miss), or None once the walk has failed."""
        if self.error is not None:
            return None
        if self.weight_density is not None and self.layout is not None:
            return self._fail(CompileError(
                "compressed weights are performance-only lowering"))
        if not 0 < a_bytes_scale <= 1:
            return self._fail(CompileError(
                f"a_bytes_scale must be in (0, 1], got {a_bytes_scale}"))
        key = ("gemm", self.config, dtype, out_dtype, m, k, n, self.tiling,
               self.post_ops, self.layout, a_bytes_scale,
               self.weight_density, self.b_resident)
        hit = self._get(key)
        if hit is not None:
            return hit
        request = (m, k, n, dtype, out_dtype, a_bytes_scale)
        # The L1 -> L0A feed copy is always pitched, and Region
        # construction rejects pitched sub-byte regions: fail the same
        # way, after this request's own tiling search (queued here).
        if dtype.bits % 8 or (self.layout is not None and out_dtype.bits % 8):
            self.gemms.append((request, tag, _Pending()))
            return self._fail(
                IsaError("pitched regions require byte-aligned dtypes"))
        pending = self._store(key)
        self.gemms.append((request, tag, pending))
        return pending

    def vector(self, work: VectorWork, tag: str):
        """Walk one vector stream request (see :meth:`gemm`)."""
        if self.error is not None:
            return None
        key = ("vec", self.config, work, self.load_input, self.store_output)
        hit = self._get(key)
        if hit is not None:
            return hit
        pending = self._store(key)
        self.vectors.append((work, tag, pending))
        return pending

    def workload(self, work: OpWorkload, a_bytes_scale: float):
        """Walk one workload: the source of its parts, or None once the
        walk has failed."""
        if self.error is not None:
            return None
        key = ("workload", self.config, work.gemms, work.vector, a_bytes_scale)
        hit = self._get(key)
        if hit is not None:
            return hit
        tag = work.name
        subs = [(self.gemm(g.m, g.k, g.n, g.dtype, g.dtype, a_bytes_scale,
                           tag), g.count) for g in work.gemms]
        subs += [(self.vector(v, tag), 1) for v in work.vector]
        pending = self._store(key)
        self.workloads.append((pending, tag, subs))
        return pending

    # -- lowering the misses --------------------------------------------------

    def lower(self) -> None:
        """Tile and emit every queued miss, fill in the pending values and
        commit the walk to the memo; or raise the first failing request's
        error (see the class docstring)."""
        config = self.config
        requests = [request for request, _, _ in self.gemms]
        tilings = [self.tiling] * len(requests)
        if self.tiling is None and requests:
            shapes = list(dict.fromkeys(r[:4] for r in requests))
            space = tiling_spaces(shapes, config)
            best = space.cheapest()
            if self.b_resident and self.weight_density is None:
                best = [fit or plain for fit, plain in
                        zip(_resident_tilings(space, shapes, config), best)]
            index = {shape: i for i, shape in enumerate(shapes)}
            tilings = [best[index[r[:4]]] for r in requests]
        if self.error is not None:
            raise self.error

        if requests:
            resident = [self.b_resident and self.weight_density is None
                        and _b_strip_fits(r, t, config)
                        for r, t in zip(requests, tilings)]
            arenas = lower_gemm_arena(
                requests, tilings, resident, [tag for _, tag, _ in self.gemms],
                self.post_ops, self.layout, self.weight_density)
            for (_, _, pending), arena in zip(self.gemms, arenas):
                pending.value = arena
        if self.vectors:
            arenas = lower_vector_arena(
                config, [work for work, _, _ in self.vectors],
                [tag for _, tag, _ in self.vectors], self.load_input,
                self.store_output)
            for (_, _, pending), arena in zip(self.vectors, arenas):
                pending.value = arena
        # The sub-program memo hands structurally identical adjacent
        # layers the *same* arena object — fold them into the repeat
        # count so concat records one wide repeat block (better
        # steady-state extrapolation) instead of several narrow ones.
        for pending, tag, subs in self.workloads:
            parts: List[list] = []
            for source, count in subs:
                arena = _resolve(source).retagged(tag)
                if parts and arena is parts[-1][0]:
                    parts[-1][1] += count
                else:
                    parts.append([arena, count])
            pending.value = tuple(tuple(part) for part in parts)

        for key, pending in self._stores:
            _memo_put(key, pending.value)
        _LOWERING_STATS["memo_hits"] += self._hits


def _resident_tilings(space: TilingSpace, shapes: Sequence[tuple],
                      config: CoreConfig) -> List[Optional[Tiling]]:
    """Per ``(m, k, n, dtype)`` shape of ``space``, the best tiling whose
    whole B K-strip fits L0B, or None: the first cheapest row of its
    space under a B-strip mask."""
    k = np.array([shape[1] for shape in shapes], np.int64)[space.shape]
    nbytes = np.array([shape[3].bytes for shape in shapes])[space.shape]
    return space.cheapest(np.ceil(k / space.tk) * space.tk * space.tn
                          * nbytes <= config.l0b_bytes)


def _b_strip_fits(request: tuple, tiling: Tiling, config: CoreConfig) -> bool:
    """Whether a GEMM's whole B K-strip under ``tiling`` fits L0B."""
    k, dtype = request[1], request[3]
    return int(math.ceil(k / tiling.tk) * tiling.tk * tiling.tn
               * dtype.bytes) <= config.l0b_bytes


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
    """Lower one M x K x N GEMM to a pipelined instruction stream: a
    lowering batch of one.

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
    batch = _Batch(config, tiling=tiling, post_ops=post_ops, layout=layout,
                   weight_density=weight_density, b_resident=b_resident)
    source = batch.gemm(m, k, n, dtype, out_dtype or dtype, a_bytes_scale,
                        tag)
    batch.lower()
    return Program.from_arena(_resolve(source).retagged(tag),
                              name=f"gemm_{m}x{k}x{n}_{config.name}")


def lower_vector_work(work: VectorWork, config: CoreConfig, tag: str = "",
                      load_input: bool = True,
                      store_output: bool = True) -> Program:
    """Lower a pure vector workload to a UB-tiled streaming program: a
    lowering batch of one.

    Each chunk streams GM -> UB (MTE2), runs ``passes`` datapath passes,
    and streams back UB -> GM (MTE3); chunks double-buffer through UB.
    Every pass is emitted as one 1-pass instruction, which charges exactly
    ``passes * elems`` element-passes — the quantity the workload model
    defines.
    """
    batch = _Batch(config, load_input=load_input, store_output=store_output)
    source = batch.vector(work, tag)
    batch.lower()
    return Program.from_arena(
        _resolve(source).retagged(tag),
        name=f"vector_{work.elems}x{work.passes}_{config.name}")


def lower_workload(works: Sequence[OpWorkload], config: CoreConfig,
                   scales: Optional[Sequence[float]] = None
                   ) -> List[Program]:
    """Lower a batch of op workloads (GEMMs + vector work), one program
    each, with ``scales[i]`` the im2col A-fetch scale of every GEMM of
    ``works[i]`` (1.0 when omitted).

    The programs, memo entries and hit count are those of lowering the
    workloads one at a time, in order; the work is one tiling pass, one
    GEMM and one vector emission pass for the whole batch.
    Performance-only: each program is its sub-programs end to end, each
    internally flag-balanced, so the concatenation is a legal program.
    It keeps them as parts (:meth:`Program.from_parts`) and concatenates
    them only when its ``arena`` is read, so the timing engine
    concatenates a batch of lowered workloads in one pass.
    """
    scales = [1.0] * len(works) if scales is None else scales
    batch = _Batch(config)
    sources = [batch.workload(work, scale)
               for work, scale in zip(works, scales)]
    batch.lower()
    return [Program.from_parts([(arena.retagged(work.name), reps)
                                for arena, reps in _resolve(source)],
                               name=f"{work.name}_{config.name}")
            for work, source in zip(works, sources)]
