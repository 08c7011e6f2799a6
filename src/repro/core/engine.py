"""Event-driven timing engine for the multi-queue execution model.

Figure 3 semantics: the PSQ dispatches instructions *in program order* into
per-pipe in-order queues; pipes run concurrently; a ``wait_flag`` stalls
its pipe until the matching ``set_flag`` retires on the producer pipe.

The engine drains a *batch* of programs through one columnar drain,
:func:`_drain`: the programs' parts are concatenated once
(:func:`_concat`), priced by one :class:`CostModel` pass and their
waits matched by one vectorized pass (:func:`_match_waits`) over the
shared columns.  Each program keeps its own rows and stays independent
of the others: a wait pairs only with a set of its own program, the
pipes start idle at its first row, and the PSQ dispatch bound counts
rows from its start.  :func:`schedule` is the batch of one (plus the
event-order trace); :func:`schedule_summary` drains the compile path's
batches and summarizes every program in one segmented pass.

Pipes retire in program order, so the j-th wait on a flag channel always
pairs with the channel's j-th set of the same program; the drain then
walks each program, in order, one of two ways:

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
hang real silicon, so surfacing them loudly is a feature.  Programs drain
in batch order, so the first one that deadlocks raises, and the programs
after it are not drained.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DeadlockError
from ..isa.arena import InstructionArena
from ..isa.channels import pack_channel
from ..isa.instructions import OP_SET, OP_WAIT, OPCODE_OF
from ..isa.pipes import Pipe
from ..isa.program import Program
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
# path actually engaged; the benchmark harness reports them).  Counted
# per program.
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
    starts, ends = _drain(arena, np.array([0, arena.n]),
                          costs.cost_columns(arena))
    order = np.lexsort((np.arange(arena.n), ends, starts))
    return ExecutionTrace.from_columns(arena.take(order), order,
                                       arena.pipe[order], starts[order],
                                       ends[order])


def schedule_summary(programs: Sequence[Program], costs: CostModel
                     ) -> List[TraceSummary]:
    """Schedule a batch of programs; one :class:`TraceSummary` each, in
    order.

    The compile path (``GraphEngine.compile_pairs``) consumes nothing
    but aggregate statistics, so this skips the event-order sort and the
    trace, and drains all of a compile's missed layers as one batch:
    one concatenation, one pricing pass, one wait matching and one
    segmented :func:`~repro.core.trace.summarize`.  Each summary equals
    ``schedule(program, costs).summary()`` (asserted in
    tests/core/test_engine_equivalence.py and test_batch_drain.py).
    """
    arena, bounds = _concat(programs)
    # A concatenated batch is never drained again, so it is priced
    # without the cost model's column memo (which would pin it).
    starts, ends = _drain(arena, bounds, costs.price_columns(arena))
    return summarize(arena, arena.pipe, starts, ends, bounds)


def _concat(programs: Sequence[Program]
            ) -> Tuple[InstructionArena, np.ndarray]:
    """The batch's rows as one arena, plus program boundaries: program
    ``p`` is rows ``bounds[p]:bounds[p + 1]``.  Part-built programs give
    their parts, so each is concatenated once, here."""
    parts = [part for program in programs for part in program.parts]
    bounds = np.zeros(len(programs) + 1, np.int64)
    np.cumsum([len(program) for program in programs], out=bounds[1:])
    if len(parts) == 1 and parts[0][1] == 1:
        return parts[0][0], bounds
    arenas, reps = zip(*parts) if parts else ((), ())
    return InstructionArena.concat(arenas, reps, _DRAIN_COLUMNS), bounds


_KIND_NAME = {op: cls.__name__ for cls, op in OPCODE_OF.items()}

# The arena columns a drain reads: pricing, wait matching, the walks,
# the deadlock report and the summary.  Tags, immediates, offsets and
# pitches stay out of a batch's concatenation.
_DRAIN_COLUMNS = ("kind", "pipe", "flag_src", "flag_dst", "event", "vop",
                  "misc", "r_space", "r_d0", "r_d1", "r_dtype")


def _match_waits(arena: InstructionArena, row_prog: np.ndarray
                 ) -> np.ndarray:
    """Static wait -> set pairing, computed vectorized for a batch.

    A runtime FIFO rendezvous per flag channel admits a *static*
    matching: every wait of a channel executes on the channel's dst pipe
    and every set on its src pipe, and pipes retire in program order — so
    the j-th program-order wait on a channel always pops the end time of
    the j-th program-order set, regardless of interleaving.  Channels
    are keyed by (program, flag channel), ``row_prog`` giving each row's
    program.  Returns an (n,) array: row index of the matched set for
    waits, -1 for non-waits, and -2 for waits whose set never arrives
    (they stall forever, which the drain reports as the same deadlock
    the dynamic rendezvous hits).
    """
    kind = arena.kind
    match = np.full(arena.n, -1, np.int64)
    flags = np.nonzero((kind == OP_SET) | (kind == OP_WAIT))[0]
    is_set = kind[flags] == OP_SET
    if is_set.all():
        return match
    chan = pack_channel(arena.flag_src[flags], arena.flag_dst[flags],
                        arena.event[flags].astype(np.int64))
    # Flags grouped by channel, in row order (so by program) within each
    # group.  numpy's stable sort is a radix sort on 16-bit keys, which
    # every channel of the lowering's event map fits.
    order = np.argsort(chan.astype(np.int16) if chan.max() < 1 << 15
                       else chan, kind="stable")
    rows, is_set, chan = flags[order], is_set[order], chan[order]
    prog = row_prog[rows]
    new = np.empty(rows.size, bool)
    new[0] = True
    new[1:] = (chan[1:] != chan[:-1]) | (prog[1:] != prog[:-1])
    group = np.cumsum(new) - 1
    first = np.nonzero(new)[0]
    # Rank of each wait among its group's waits; the group's sets, in
    # order, are one run of ``set_rows``.
    waits_before = np.cumsum(~is_set) - ~is_set
    rank = (waits_before - waits_before[first][group])[~is_set]
    set_rows = rows[is_set]
    sets_per_group = np.bincount(group[is_set], minlength=first.size)
    set_start = np.cumsum(sets_per_group) - sets_per_group
    wait_group = group[~is_set]
    found = rank < sets_per_group[wait_group]
    pos = np.where(found, set_start[wait_group] + rank, 0)
    match[rows[~is_set]] = (np.where(found, set_rows[pos], -2)
                            if set_rows.size else -2)
    return match


def _repeat_segments(repeats, bounds: List[int]
                     ) -> List[List[Tuple[int, int, int]]]:
    """Usable (start, block, reps) segments of each program: inside it,
    non-overlapping, ascending, and big enough that steady-state
    detection can pay off (at least four repeats — two to warm up, two
    to verify the shift)."""
    out: List[List[Tuple[int, int, int]]] = [[] for _ in bounds[1:]]
    last_end = 0
    for start, block, reps in sorted(repeats):
        if reps < 4 or block < 1:
            continue
        p = bisect_right(bounds, start) - 1
        end = start + block * reps
        if start < last_end or p >= len(out) or end > bounds[p + 1]:
            continue
        out[p].append((start, block, reps))
        last_end = end
    return out


def _drain(arena: InstructionArena, bounds: np.ndarray,
           cost_col: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The timing engine's one drain: (starts, ends) for every row of a
    batch whose program ``p`` is rows ``bounds[p]:bounds[p + 1]``.

    The prepass reads the precomputed columns directly — ``cost_col``
    from :meth:`CostModel.price_columns`, flag pairing from
    :func:`_match_waits`, each row's dispatch bound from its row index
    within its program — so no per-row Python dispatch exists between
    the compiler and the drain loop.  Programs then drain in order: the
    flat program-order walk (:func:`_flat_walk`) whenever every wait of
    the program pairs backward, else the general queue drain
    (:func:`_queue_drain`), which schedules stalls and reports
    deadlocks.
    """
    n = arena.n
    sizes = np.diff(bounds)
    row_prog = np.repeat(np.arange(sizes.size), sizes)
    index = np.arange(n, dtype=np.int64)
    match_col = _match_waits(arena, row_prog)
    dispatch = (index - np.repeat(bounds[:-1], sizes)) // _DISPATCH_PER_CYCLE
    # Flat exactly when every wait matches backward (always true for
    # lowered programs; injected sync faults can break it).
    backward = np.bincount(row_prog[(match_col == -2) | (match_col >= index)],
                           minlength=sizes.size) == 0

    pipe_l = arena.pipe.tolist()
    cost_l = cost_col.tolist()
    match_l = match_col.tolist()
    dispatch_l = dispatch.tolist()
    ends: List[int] = []   # filled in row order, program by program
    bound_l = bounds.tolist()
    segments = _repeat_segments(arena.repeats, bound_l)

    # RAS hooks (no-ops without an active plan): stall faults scale the
    # cost column; sync faults perturb the static wait->set matching (a
    # dropped set becomes the never-set marker its consumer stalls on).
    # Both act on one program at a time, in batch order, just before it
    # drains, so the injector draws as it would program by program.
    inj = active_injector()
    stall = inj is not None and inj.has_stall_faults()
    sync = inj is not None and inj.has_sync_faults()
    if stall:
        cost_col = cost_col.copy()
    if sync:
        packed = arena.packed_channels()

    for p, (lo, hi) in enumerate(zip(bound_l, bound_l[1:])):
        if stall:
            cost_col[lo:hi] = inj.scale_costs(cost_col[lo:hi],
                                              arena.pipe[lo:hi])
            cost_l[lo:hi] = cost_col[lo:hi].tolist()
        if sync:
            own = match_col[lo:hi]   # a view: perturbed in place
            own[:] = _shift(inj.perturb_matches(
                _shift(own, -lo), packed[lo:hi],
                np.nonzero(arena.kind[lo:hi] == OP_SET)[0]), lo)
            match_l[lo:hi] = own.tolist()
            backward[p] = not np.any((own == -2) | (own >= index[lo:hi]))
        if backward[p]:
            _ENGINE_STATS["flat_drains"] += 1
            _flat_walk(lo, hi, segments[p], pipe_l, cost_l, match_l,
                       dispatch_l, ends, cost_col, match_col)
            continue
        _ENGINE_STATS["general_drains"] += 1
        ends.extend(_queue_drain(arena, lo, hi, cost_col[lo:hi],
                                 _shift(match_col[lo:hi], -lo), inj))

    ends_col = np.fromiter(ends, np.int64, n)
    return ends_col - cost_col, ends_col


def _shift(match: np.ndarray, offset: int) -> np.ndarray:
    """``match`` with every matched set row moved by ``offset`` (the
    markers -1 and -2 kept): between batch and program row numbers."""
    return np.where(match >= 0, match + offset, match)


def _flat_walk(lo: int, hi: int, segments, pipe_l, cost_l, match_l,
               dispatch_l, ends, cost_col: np.ndarray,
               match_col: np.ndarray) -> None:
    """Program-order drain of rows [lo, hi): valid whenever every wait
    matches backward.

    In every program the default lowerers emit, the j-th wait on a
    channel always pairs with a set at a *lower* row index (producers
    signal before consumers reach the rendezvous).  Then each row's end
    depends only on strictly earlier rows — its pipe predecessor and its
    matched set — so program order is a topological order of the
    dependence DAG and one flat walk computes the same unique fixpoint
    the work-conserving queue drain converges to (both evaluate the
    identical per-row recurrence ``end = max(pipe_prev, dispatch,
    matched_end) + cost``; tests pin byte-identity against the queue
    drain and the fixpoint oracle).  Appends rows [lo, hi) to ``ends``,
    which holds the rows before them.

    Concat-repeated regions (``segments``) additionally use max-plus
    shift invariance: once the per-block match pattern repeats exactly,
    two consecutive blocks shift end times by one uniform delta, and the
    PSQ dispatch bound is strictly dominated with delta >= ceil(block /
    dispatch-rate), every later block is the previous one shifted by
    that delta — computed vectorized instead of re-walked row by row.
    """
    pipe_time = [0] * _N_PIPES
    append = ends.append

    def run(a: int, b: int) -> None:
        # ``ends`` holds every earlier row: rows [a, b) append in order.
        for p, d, m, c in zip(pipe_l[a:b], dispatch_l[a:b], match_l[a:b],
                              cost_l[a:b]):
            t = pipe_time[p]
            if t < d:
                t = d
            if m >= 0:
                s = ends[m]
                if s > t:
                    t = s
            t += c
            pipe_time[p] = t
            append(t)

    pos = lo
    for rstart, block, reps in segments:
        run(pos, rstart)
        _run_repeat_region(rstart, block, reps, run, ends, pipe_l, cost_l,
                           dispatch_l, cost_col, match_col, pipe_time)
        pos = rstart + block * reps
    run(pos, hi)


def _run_repeat_region(rstart: int, B: int, R: int, run, ends, pipe_l,
                       cost_l, dispatch_l, cost_col, match_col,
                       pipe_time) -> None:
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
    (the row's index within its program over the dispatch rate) grows
    by at most ceil(B/disp) <= delta per block while start times grow
    by exactly delta, so it can never catch up and bind.
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

    min_delta = -(-B // _DISPATCH_PER_CYCLE)
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
                    and all(ends[s + r] - cost_l[s + r] > dispatch_l[s + r]
                            for r in range(B))):
                rem = R - 1 - j
                blk = np.asarray(cur, np.int64)
                shifts = np.arange(1, rem + 1, dtype=np.int64) * d
                ends.extend((blk[None, :] + shifts[:, None]).ravel().tolist())
                total = rem * d
                for p in set(pipe_l[s:s + B]):
                    pipe_time[p] += total
                _ENGINE_STATS["extrapolated_blocks"] += rem
                return
            delta_prev = d if uniform else None
        prev = cur
        j += 1


def _queue_drain(arena: InstructionArena, lo: int, hi: int,
                 cost_col: np.ndarray, match_col: np.ndarray, inj
                 ) -> List[int]:
    """General queue drain of one program, rows [lo, hi): its end times,
    indexed within the program (``match_col`` pairs in those indices).

    The static matching strips every dict/deque operation out of its
    loop: a wait reads its producer's end time straight out of ``ends``
    (−1 = not yet retired), and a retiring instruction wakes at most one
    registered waiter via a flat array.  Each pipe's queue is pre-zipped
    into (row, cost, match) tuples so the hot loop unpacks one
    small-list entry instead of indexing three program-length columns.
    """
    n = hi - lo
    pipe_col = arena.pipe[lo:hi]
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
        packed = arena.packed_channels()[lo:hi]
        kind_col = arena.kind[lo:hi]
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

    return ends
