"""Event-driven timing engine for the multi-queue execution model.

Figure 3 semantics: the PSQ dispatches instructions *in program order* into
per-pipe in-order queues; pipes run concurrently; a ``wait_flag`` stalls
its pipe until the matching ``set_flag`` retires on the producer pipe.

Every program drains through one columnar drain, :func:`_drain_arena`,
over ``program.arena`` (object-built programs grow their arena on first
access, inexact rows included).  Pipes retire in program order, so the
j-th wait on a flag channel always pairs with the channel's j-th set: the
pairing is computed once, vectorized (:func:`_match_waits`), and the
drain picks one of two walks over it:

* the **flat drain** — when every wait pairs with an earlier set,
  program order is a topological order of the dependence DAG and one
  program-order pass evaluates the end-time recurrence; concat-repeated
  regions extrapolate their proven steady state instead of re-walking
  identical blocks;
* the **general queue drain** — per-pipe cursors woken by retiring sets,
  for forward-matching waits, deadlocks and injected sync faults.

Both walks evaluate the same per-row recurrence, so start/end times are
independent of which one ran (``tests/core/oracle.py`` keeps the
rescan-to-fixpoint scheduler the suites compare against).

A program whose waits can never be satisfied raises
:class:`~repro.errors.DeadlockError` with a structured
:class:`~repro.reliability.deadlock.DeadlockReport` — the same programs
hang real silicon, so surfacing them loudly is a feature.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from ..errors import DeadlockError
from ..isa.instructions import OP_SET, OP_WAIT, OPCODE_OF
from ..isa.pipes import Pipe
from ..isa.program import Program
from ..profiling.session import active_session
from ..reliability.deadlock import PipeStall, build_report
from ..reliability.injector import active_injector
from .costs import CostModel
from .trace import ExecutionTrace, TraceSummary, summarize

__all__ = [
    "schedule",
    "schedule_summary",
    "engine_stats",
    "reset_engine_stats",
]

# Observability for the drain fast paths (tests pin that the intended
# path actually engaged; the benchmark harness reports them).
_ENGINE_STATS = {"flat_drains": 0, "general_drains": 0,
                 "extrapolated_blocks": 0}


def engine_stats() -> dict:
    """Counters for scheduler fast-path engagement in this process."""
    return dict(_ENGINE_STATS)


def reset_engine_stats() -> None:
    for k in _ENGINE_STATS:
        _ENGINE_STATS[k] = 0

# The PSQ dispatches a bounded number of instructions per cycle; with
# tile-granular instructions this is essentially never the bottleneck,
# but modeling it keeps pathological fine-grained programs honest.
_DISPATCH_PER_CYCLE = 4

_N_PIPES = len(Pipe)


def schedule(program: Program, costs: CostModel) -> ExecutionTrace:
    """Compute start/end cycles for every instruction in ``program``.

    The trace is the program's arena in event order: lexsort's last key
    is primary, so events sort by (start, end, program index).
    """
    arena = program.arena
    starts, ends = _drain_arena(arena, costs)
    order = np.lexsort((np.arange(arena.n), ends, starts))
    trace = ExecutionTrace.from_columns(arena.take(order), order,
                                        arena.pipe[order], starts[order],
                                        ends[order])
    # Profiling is a pure observer: with no active session this is one
    # None check; with one, the finished trace is read, never mutated —
    # cycles are byte-identical either way (pinned by tests/profiling).
    session = active_session()
    if session is not None:
        session.observe_trace(trace, label=program.name)
    return trace


_KIND_NAME = {op: cls.__name__ for cls, op in OPCODE_OF.items()}


def _match_waits(arena) -> np.ndarray:
    """Static wait -> set pairing, computed vectorized.

    A runtime FIFO rendezvous per flag channel admits a *static*
    matching: every wait of a channel executes on the channel's dst pipe
    and every set on its src pipe, and pipes retire in program order — so
    the j-th program-order wait on a channel always pops the end time of
    the j-th program-order set, regardless of interleaving.  Returns an
    (n,) array: row index of the matched set for waits, -1 for non-waits,
    and -2 for waits whose set never arrives (they stall forever, which
    the drain reports as the same deadlock the dynamic rendezvous hits).
    """
    packed = arena.packed_channels()
    kind = arena.kind
    set_idx = np.nonzero(kind == OP_SET)[0]
    wait_idx = np.nonzero(kind == OP_WAIT)[0]
    match = np.full(arena.n, -1, np.int64)
    if not wait_idx.size:
        return match
    if not set_idx.size:
        match[wait_idx] = -2
        return match

    def chan_rank(ch: np.ndarray) -> np.ndarray:
        """Occurrence number of each element within its channel value."""
        order = np.argsort(ch, kind="stable")
        sorted_ch = ch[order]
        new_group = np.empty(ch.size, bool)
        new_group[0] = True
        np.not_equal(sorted_ch[1:], sorted_ch[:-1], out=new_group[1:])
        group_start = np.maximum.accumulate(
            np.where(new_group, np.arange(ch.size), 0))
        ranks = np.empty(ch.size, np.int64)
        ranks[order] = np.arange(ch.size) - group_start
        return ranks

    set_ch = packed[set_idx]
    wait_ch = packed[wait_idx]
    stride = np.int64(max(set_idx.size, wait_idx.size) + 1)
    set_key = set_ch * stride + chan_rank(set_ch)
    wait_key = wait_ch * stride + chan_rank(wait_ch)
    order = np.argsort(set_key)
    pos = np.searchsorted(set_key, wait_key, sorter=order)
    pos_clipped = np.minimum(pos, set_key.size - 1)
    candidates = set_idx[order[pos_clipped]]
    found = (pos < set_key.size) & (set_key[order[pos_clipped]] == wait_key)
    match[wait_idx] = np.where(found, candidates, -2)
    return match


def _repeat_segments(arena, n: int) -> List[Tuple[int, int, int]]:
    """Usable (start, block, reps) segments: in bounds, non-overlapping,
    ascending, and big enough that steady-state detection can pay off
    (at least four repeats — two to warm up, two to verify the shift)."""
    out: List[Tuple[int, int, int]] = []
    last_end = 0
    for start, block, reps in sorted(getattr(arena, "repeats", ())):
        if reps < 4 or block < 1:
            continue
        end = start + block * reps
        if start < last_end or end > n:
            continue
        out.append((start, block, reps))
        last_end = end
    return out


def _flat_drain_arena(arena, cost_col: np.ndarray, match_col: np.ndarray
                      ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Program-order drain: valid whenever every wait matches backward.

    In every program the default lowerers emit, the j-th wait on a
    channel always pairs with a set at a *lower* row index (producers
    signal before consumers reach the rendezvous).  Then each row's end
    depends only on strictly earlier rows — its pipe predecessor and its
    matched set — so program order is a topological order of the
    dependence DAG and one flat walk computes the same unique fixpoint
    the work-conserving queue drain converges to (both evaluate the
    identical per-row recurrence ``end = max(pipe_prev, dispatch,
    matched_end) + cost``; tests pin byte-identity against the queue
    drain and the fixpoint oracle).  Returns None — caller falls back to
    the general drain — when a wait matches forward or never (the
    general drain owns stall scheduling and deadlock reporting).

    Concat-repeated regions (``arena.repeats``) additionally use max-plus
    shift invariance: once the per-block match pattern repeats exactly,
    two consecutive blocks shift end times by one uniform delta, and the
    PSQ dispatch bound is strictly dominated with delta >= ceil(block /
    dispatch-rate), every later block is the previous one shifted by
    that delta — computed vectorized instead of re-walked row by row.
    """
    n = arena.n
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    if match_col.size:
        if np.any(match_col == -2):
            return None  # unmatched wait: general drain reports deadlock
        if np.any(match_col >= np.arange(n, dtype=np.int64)):
            return None  # forward match: program order not topological
    disp = _DISPATCH_PER_CYCLE
    pipe_l = arena.pipe.tolist()
    cost_l = cost_col.tolist()
    match_l = match_col.tolist()
    ends = [0] * n
    pipe_time = [0] * _N_PIPES

    def run(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            p = pipe_l[i]
            t = pipe_time[p]
            d = i // disp
            if t < d:
                t = d
            m = match_l[i]
            if m >= 0:
                s = ends[m]
                if s > t:
                    t = s
            t += cost_l[i]
            pipe_time[p] = t
            ends[i] = t

    pos = 0
    for rstart, block, reps in _repeat_segments(arena, n):
        run(pos, rstart)
        _run_repeat_region(rstart, block, reps, run, ends, pipe_l, cost_l,
                           cost_col, match_col, pipe_time, disp)
        pos = rstart + block * reps
    run(pos, n)
    ends_col = np.asarray(ends, np.int64)
    return ends_col - cost_col, ends_col


def _run_repeat_region(rstart: int, B: int, R: int, run, ends, pipe_l,
                       cost_l, cost_col, match_col, pipe_time,
                       disp: int) -> None:
    """Drain rows [rstart, rstart + B*R) — R copies of a B-row block —
    extrapolating the steady state once it is *proven*, else walking.

    Preconditions verified vectorized before any shortcut:
    (a) match shift invariance — block j's waits match exactly block 0's
        pattern shifted by j*B (so every block sees the same dependence
        shape), and
    (b) match depth <= 2B — matched sets lie within the previous two
        blocks (so two observed uniform shifts pin every input of the
        next block), and
    (c) per-row costs identical across blocks.
    Then blocks are walked until two *consecutive* uniform end-time
    shifts by the same delta are observed with delta >= ceil(B/disp) and
    a strict dispatch margin on every row of the last block.  From there
    induction gives ends(block j+k) = ends(block j) + k*delta: pipe
    cursors and matched ends all shift by delta, and the dispatch bound
    grows by at most ceil(B/disp) <= delta per block while start times
    grow by exactly delta, so it can never catch up and bind.
    """
    seg_end = rstart + B * R
    mm = match_col[rstart:seg_end].reshape(R, B)
    base = mm[0]
    expect = np.where(
        base >= 0,
        base[None, :] + (np.arange(R, dtype=np.int64) * B)[:, None],
        base[None, :])
    cc = cost_col[rstart:seg_end].reshape(R, B)
    offs = np.arange(B, dtype=np.int64)
    if (not np.array_equal(mm, expect)
            or not np.all(cc == cc[0])
            or not np.all((base < 0) | (base >= rstart + offs - 2 * B))):
        run(rstart, seg_end)
        return

    min_delta = -(-B // disp)
    delta_prev: Optional[int] = None
    prev: Optional[list] = None
    j = 0
    while j < R:
        s = rstart + j * B
        run(s, s + B)
        cur = ends[s:s + B]
        if prev is not None:
            d = cur[0] - prev[0]
            uniform = all(c - p == d for c, p in zip(cur, prev))
            if (uniform and d == delta_prev and d >= min_delta
                    and j + 1 < R
                    and all(ends[s + r] - cost_l[s + r] > (s + r) // disp
                            for r in range(B))):
                rem = R - 1 - j
                blk = np.asarray(cur, np.int64)
                shifts = np.arange(1, rem + 1, dtype=np.int64) * d
                ends[s + B:seg_end] = \
                    (blk[None, :] + shifts[:, None]).ravel().tolist()
                total = rem * d
                for p in set(pipe_l[s:s + B]):
                    pipe_time[p] += total
                _ENGINE_STATS["extrapolated_blocks"] += rem
                return
            delta_prev = d if uniform else None
        prev = cur
        j += 1


def _drain_arena(arena, costs: CostModel) -> Tuple[np.ndarray, np.ndarray]:
    """The timing engine's one drain: (starts, ends) for every arena row.

    The prepass reads the precomputed columns directly — costs from
    :meth:`CostModel.cost_columns`, flag pairing from :func:`_match_waits`
    — so no per-row Python dispatch exists between the compiler and the
    drain loop.  The flat program-order walk runs whenever every wait
    pairs backward; otherwise the general queue drain below schedules
    stalls and reports deadlocks.  The static matching strips every
    dict/deque operation out of its loop: a wait reads its producer's end
    time straight out of ``ends`` (−1 = not yet retired), and a retiring
    instruction wakes at most one registered waiter via a flat array.
    Each pipe's queue is pre-zipped into (row, cost, match) tuples so the
    hot loop unpacks one small-list entry instead of indexing three
    program-length columns.
    """
    n = arena.n
    pipe_col = arena.pipe
    cost_col = costs.cost_columns(arena)
    match_col = _match_waits(arena)

    # RAS hooks (no-ops without an active plan): stall faults scale the
    # cost column; sync faults perturb the static wait->set matching (a
    # dropped set becomes the never-set marker its consumer stalls on).
    inj = active_injector()
    if inj is not None:
        if inj.has_stall_faults():
            cost_col = inj.scale_costs(cost_col, pipe_col)
        if inj.has_sync_faults():
            match_col = inj.perturb_matches(
                match_col, arena.packed_channels(),
                np.nonzero(arena.kind == OP_SET)[0])

    # Flat program-order fast path: applicable exactly when every wait
    # matches backward (always true for lowered programs; injected sync
    # faults can break it, in which case the perturbed match column
    # fails the precondition and the general drain below takes over).
    flat = _flat_drain_arena(arena, cost_col, match_col)
    if flat is not None:
        _ENGINE_STATS["flat_drains"] += 1
        return flat
    _ENGINE_STATS["general_drains"] += 1

    queues: List[List[tuple]] = []
    for p in range(_N_PIPES):
        rows = np.nonzero(pipe_col == p)[0]
        queues.append(list(zip(rows.tolist(), cost_col[rows].tolist(),
                               match_col[rows].tolist())))

    cursors = [0] * _N_PIPES
    pipe_time = [0] * _N_PIPES
    # waiter_of[s]: pipe currently stalled on set s (at most one — the
    # channel's single consumer pipe), -1 when none.
    waiter_of = [-1] * n
    runnable: Deque[int] = deque(p for p in range(_N_PIPES) if queues[p])
    starts = [0] * n
    ends = [-1] * n
    done = 0

    while runnable:
        pipe = runnable.popleft()
        queue = queues[pipe]
        cur = cursors[pipe]
        now = pipe_time[pipe]
        qlen = len(queue)
        while cur < qlen:
            index, c, producer = queue[cur]
            dispatch_ready = index // _DISPATCH_PER_CYCLE
            start = now if now > dispatch_ready else dispatch_ready
            if producer != -1:
                if producer < 0:  # unmatched wait: stalls forever
                    break
                signalled = ends[producer]
                if signalled < 0:
                    waiter_of[producer] = pipe  # stalled: not retired yet
                    break
                if signalled > start:
                    start = signalled
            end = start + c
            now = end
            starts[index] = start
            ends[index] = end
            woken = waiter_of[index]
            if woken >= 0:
                waiter_of[index] = -1
                runnable.append(woken)
            cur += 1
            done += 1
        cursors[pipe] = cur
        pipe_time[pipe] = now

    if done < n:
        # Watchdog: the static matching already names each wait's
        # producer; -2 marks a wait whose set never exists (or whose set
        # was dropped by an injected sync fault).
        packed = arena.packed_channels()
        kind_col = arena.kind
        stalls = []
        for p in range(_N_PIPES):
            if cursors[p] < len(queues[p]):
                row, _, producer = queues[p][cursors[p]]
                op = int(kind_col[row])
                kind = _KIND_NAME.get(op, f"opcode {op}")
                if producer != -1:
                    stalls.append(PipeStall(
                        pipe=str(Pipe(p)), index=row, kind=kind,
                        channel=int(packed[row]),
                        producer_index=producer if producer >= 0 else None,
                        never_set=producer < 0))
                else:
                    stalls.append(PipeStall(pipe=str(Pipe(p)), index=row,
                                            kind=kind))
        injected = inj is not None and any(
            inj.counters[k] for k in
            ("sync_dropped", "sync_duplicated", "sync_reordered"))
        report = build_report(stalls, injected=injected)
        raise DeadlockError(report.describe(), report=report)

    return np.asarray(starts, np.int64), np.asarray(ends, np.int64)


def schedule_summary(program: Program, costs: CostModel) -> TraceSummary:
    """Schedule ``program`` and return only its :class:`TraceSummary`.

    The compile path (``GraphEngine.compile_workload``) consumes nothing
    but aggregate statistics, so this skips the event-order sort and the
    trace.  Equal to ``schedule(program, costs).summary()`` by
    construction: both are :func:`~repro.core.trace.summarize` over the
    same drain (asserted in tests/core/test_engine_equivalence.py).
    """
    arena = program.arena
    starts, ends = _drain_arena(arena, costs)
    summary = summarize(arena, arena.pipe, starts, ends)
    session = active_session()
    if session is not None:
        session.observe_summary(summary, label=program.name)
    return summary
