"""Execution traces: what ran where, when, and how many bytes it moved.

The analysis harness consumes traces to reproduce the paper's per-layer
figures: cube/vector busy-cycle ratios (Figures 4-8) and L1 bandwidth
profiles (Figure 9).

A trace is the scheduled program's
:class:`~repro.isa.arena.InstructionArena` in event order — the same
opcode, tag, region and flag columns lowering wrote, one row encoding
from compiler to trace — plus the trace's own program-index, pipe,
start and end columns.  Every aggregate query — ``total_cycles``,
``busy_cycles``, ``span``, ``moved_bytes``, :func:`summarize` — is a
masked reduction over those columns, so no per-event Python objects
exist on the hot path.  :class:`TraceEvent` survives as a lazy *view*:
``trace.events`` materializes the arena's instruction objects on first
access for consumers that want the row-oriented picture (functional
replay, tests, examples).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

import numpy as np

from ..isa.arena import FLAG_OPS, MOVE_OPS, InstructionArena
from ..isa.instructions import OP_SCALAR
from ..isa.memref import MemSpace
from ..isa.pipes import Pipe

if TYPE_CHECKING:
    from ..isa.instructions import Instruction

__all__ = ["TraceEvent", "ExecutionTrace", "TraceSummary", "summarize"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One instruction's occupancy of its pipe.

    A frozen, ``__slots__`` value object: traces materialize these lazily
    from the columnar arena, so an event carries no per-instance dict.
    """

    index: int  # program order
    instr: Instruction
    pipe: Pipe
    start: int
    end: int

    @property
    def cycles(self) -> int:
        return self.end - self.start

    @property
    def tag(self) -> str:
        return self.instr.tag


@dataclass(frozen=True)
class TraceSummary:
    """Aggregates of one trace, computed in a single pass (see
    :func:`summarize`)."""

    total_cycles: int
    busy_by_pipe: Tuple[int, ...]  # indexed by int(Pipe)
    l1_read_bytes: int
    l1_write_bytes: int
    gm_read_bytes: int
    gm_write_bytes: int

    def busy_cycles(self, pipe: Pipe) -> int:
        return self.busy_by_pipe[pipe]


def summarize(arena: InstructionArena, pipe: np.ndarray, start: np.ndarray,
              end: np.ndarray, bounds: Sequence[int]) -> List[TraceSummary]:
    """Makespan, per-pipe busy cycles and L1/GM traffic of each program
    of scheduled rows, in one segmented pass.

    ``pipe``, ``start`` and ``end`` hold one entry per arena row, in the
    arena's row order; program ``p`` is rows ``bounds[p]:bounds[p + 1]``.
    ``busy_by_pipe[p]`` sums the occupied cycles on pipe ``p``, flag
    bookkeeping included.  L1 reads are the L1 -> L0A/L0B/UB feeds
    (MTE1); L1 writes are inbound GM -> L1 (MTE2) and UB -> L1
    write-backs (MTE3), the quantity Figure 9 profiles.  GM reads and
    writes are the BIU/LLC traffic.  :meth:`ExecutionTrace.summary` is
    the batch of one; the compile path's
    :func:`~repro.core.engine.schedule_summary` summarizes a batch.
    """
    bounds = np.asarray(bounds, np.int64)
    sizes = np.diff(bounds)
    count = sizes.size
    row_prog = np.repeat(np.arange(count), sizes)
    # int64 sums are exact through float64 weights (values < 2^53).
    busy = np.bincount(row_prog * len(Pipe) + pipe, weights=end - start,
                       minlength=count * len(Pipe)).astype(np.int64)
    total = np.zeros(count, np.int64)
    occupied = sizes > 0
    if occupied.any():
        total[occupied] = np.maximum.reduceat(end, bounds[:-1][occupied])
    # Traffic from the move rows only: bytes into (slot 0) and out of
    # (slot 1) each move, summed per program through a running total.
    move = np.nonzero(np.isin(arena.kind, MOVE_OPS))[0]
    src = arena.r_space[move, 1]
    dst = arena.r_space[move, 0]
    into = arena.slot_bytes(move, 0)
    out_of = arena.slot_bytes(move, 1)
    edges = np.searchsorted(move, bounds)
    running = np.zeros(move.size + 1, np.int64)
    l1, gm = int(MemSpace.L1), int(MemSpace.GM)

    def per_program(mask: np.ndarray, nbytes: np.ndarray) -> List[int]:
        np.cumsum(np.where(mask, nbytes, 0), out=running[1:])
        return (running[edges[1:]] - running[edges[:-1]]).tolist()

    traffic = zip(per_program(src == l1, out_of),
                  per_program(dst == l1, into),
                  per_program(src == gm, into),
                  per_program(dst == gm, out_of))
    return [TraceSummary(total_cycles=cycles, busy_by_pipe=tuple(by_pipe),
                         l1_read_bytes=l1_read, l1_write_bytes=l1_write,
                         gm_read_bytes=gm_read, gm_write_bytes=gm_write)
            for cycles, by_pipe, (l1_read, l1_write, gm_read, gm_write)
            in zip(total.tolist(), busy.reshape(count, len(Pipe)).tolist(),
                   traffic)]


class _EventsView(Sequence):
    """Lazy, immutable sequence of :class:`TraceEvent` over the trace.

    Supports ``len``/iteration/indexing/slicing/``==`` like the list it
    replaces; events are built on access and never stored.  Slicing —
    including negative and stepped slices — returns another view over the
    selected rows, so ``trace.events[a:b]`` keeps the lazy, comparable
    sequence semantics of the full view instead of decaying to a plain
    ``list``.
    """

    __slots__ = ("_trace", "_rows")

    def __init__(self, trace: "ExecutionTrace",
                 rows: Optional[np.ndarray] = None) -> None:
        self._trace = trace
        # None = the whole trace; else the selected row ids, in order.
        self._rows = rows

    def _row_ids(self) -> np.ndarray:
        if self._rows is None:
            return np.arange(len(self._trace))
        return self._rows

    def __len__(self) -> int:
        if self._rows is None:
            return len(self._trace)
        return len(self._rows)

    def __getitem__(self, i):
        t = self._trace
        if isinstance(i, slice):
            return _EventsView(t, self._row_ids()[i])
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace event index out of range")
        if self._rows is not None:
            i = int(self._rows[i])
        return t._event_at(i)

    def __iter__(self):
        t = self._trace
        instrs = t._arena.materialize()
        rows = self._row_ids()
        index = t._index[rows].tolist()
        pipes = t._pipe[rows].tolist()
        starts = t._start[rows].tolist()
        ends = t._end[rows].tolist()
        for pos, i in enumerate(rows.tolist()):
            yield TraceEvent(index[pos], instrs[i], Pipe(pipes[pos]),
                             starts[pos], ends[pos])

    def __eq__(self, other) -> bool:
        if isinstance(other, _EventsView):
            if len(self) != len(other):
                return False
            a, b = self._trace, other._trace
            ra, rb = self._row_ids(), other._row_ids()
            if not (np.array_equal(a._index[ra], b._index[rb])
                    and np.array_equal(a._pipe[ra], b._pipe[rb])
                    and np.array_equal(a._start[ra], b._start[rb])
                    and np.array_equal(a._end[ra], b._end[rb])):
                return False
            ia, ib = a._arena.materialize(), b._arena.materialize()
            return all(ia[i] == ib[j]
                       for i, j in zip(ra.tolist(), rb.tolist()))
        if isinstance(other, (list, tuple)):
            if len(other) != len(self):
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<events view: {len(self)} events>"


class ExecutionTrace:
    """All events of one program run, with aggregate queries.

    ``arena`` holds the events' instructions in event order; ``events``
    is a lazy row view over it.  Aggregates are masked numpy reductions.
    """

    __slots__ = ("_arena", "_index", "_pipe", "_start", "_end")

    def __init__(self, events: Iterable[TraceEvent] = ()) -> None:
        """A trace of ``events`` in the given order (tests, oracles); the
        scheduler builds traces through :meth:`from_columns`."""
        events = list(events)
        self._assign(
            InstructionArena.from_instructions([e.instr for e in events]),
            [e.index for e in events], [int(e.pipe) for e in events],
            [e.start for e in events], [e.end for e in events])

    @classmethod
    def from_columns(cls, arena: InstructionArena, index, pipe, start, end
                     ) -> "ExecutionTrace":
        """A trace over ``arena``, whose rows are already in event order,
        plus the per-event program index, pipe, start and end columns
        (lists or arrays)."""
        trace = cls.__new__(cls)
        trace._assign(arena, index, pipe, start, end)
        return trace

    def _assign(self, arena: InstructionArena, index, pipe, start, end
                ) -> None:
        self._arena = arena
        self._index = np.asarray(index, np.int64)
        self._pipe = np.asarray(pipe, np.int8)
        self._start = np.asarray(start, np.int64)
        self._end = np.asarray(end, np.int64)

    # -- row view -------------------------------------------------------------

    @property
    def events(self) -> _EventsView:
        """Lazy sequence of :class:`TraceEvent` (materialized on access)."""
        return _EventsView(self)

    def _event_at(self, i: int) -> TraceEvent:
        return TraceEvent(int(self._index[i]), self._arena.materialize()[i],
                          Pipe(int(self._pipe[i])),
                          int(self._start[i]), int(self._end[i]))

    def __len__(self) -> int:
        return self._arena.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExecutionTrace({len(self)} events, {len(self.tags())} tags)"

    # -- aggregate queries (masked reductions) --------------------------------

    @property
    def total_cycles(self) -> int:
        if len(self) == 0:
            return 0
        return int(self._end.max())

    def _tagged(self, tag: str) -> np.ndarray:
        """Mask of the events carrying ``tag`` (all False when none do)."""
        tags = self._arena.tags
        if tag not in tags:
            return np.zeros(len(self), bool)
        return self._arena.tag_id == tags.index(tag)

    def busy_cycles(self, pipe: Pipe, tag: Optional[str] = None) -> int:
        """Sum of occupied cycles on a pipe (optionally for one tag).

        Flag/barrier bookkeeping (1-cycle events with no payload) is
        included; it is negligible against real work.
        """
        mask = self._pipe == int(pipe)
        if tag is not None:
            mask &= self._tagged(tag)
        return int((self._end[mask] - self._start[mask]).sum())

    def utilization(self, pipe: Pipe) -> float:
        total = self.total_cycles
        if total == 0:
            return 0.0
        return self.busy_cycles(pipe) / total

    def tags(self) -> List[str]:
        """Distinct non-empty tags in first-appearance (event) order."""
        ids, first = np.unique(self._arena.tag_id, return_index=True)
        names = self._arena.tags
        return [names[i] for i in ids[np.argsort(first)].tolist()
                if names[i]]

    def span(self, tag: str) -> Tuple[int, int]:
        """(first start, last end) over events carrying ``tag``."""
        mask = self._tagged(tag)
        if not mask.any():
            return (0, 0)
        return (int(self._start[mask].min()),
                int(self._end[mask].max()))

    def summary(self) -> TraceSummary:
        """Makespan, per-pipe busy cycles and L1/GM traffic (see
        :func:`summarize`)."""
        return summarize(self._arena, self._pipe, self._start, self._end,
                         (0, len(self)))[0]

    def moved_bytes(self, src: MemSpace, dst: MemSpace,
                    tag: Optional[str] = None) -> int:
        """Bytes moved along one (src, dst) space pair: payload bytes on
        the producer side, except GM reads, counted at the consumer."""
        arena = self._arena
        mask = (np.isin(arena.kind, MOVE_OPS)
                & (arena.r_space[:, 1] == int(src))
                & (arena.r_space[:, 0] == int(dst)))
        if tag is not None:
            mask &= self._tagged(tag)
        slot = 0 if src is MemSpace.GM else 1
        return int(arena.nbytes[mask, slot].sum())

    # -- columnar access ------------------------------------------------------
    #
    # The trace's columns for vectorized consumers (counters, Chrome
    # export, gantt binning, benchmarks).  Treat them as read-only: they
    # alias trace storage.

    @property
    def arena(self) -> InstructionArena:
        """The events' instruction rows (opcode, tag, regions, flag
        channel), in event order."""
        return self._arena

    @property
    def indices(self) -> np.ndarray:
        """Program (issue) order per event."""
        return self._index

    @property
    def starts(self) -> np.ndarray:
        return self._start

    @property
    def ends(self) -> np.ndarray:
        return self._end

    @property
    def pipes(self) -> np.ndarray:
        return self._pipe

    # -- functional-execution support -----------------------------------------

    def functional_instructions(self) -> List[Instruction]:
        """Instructions with architectural effect, in causal order.

        Flags, barriers and scalar bookkeeping carry no state outside the
        schedule, so functional replay skips them.
        """
        instrs = self._arena.materialize()
        stateless = np.isin(self._arena.kind, (*FLAG_OPS, OP_SCALAR))
        return [instrs[i] for i in np.nonzero(~stateless)[0].tolist()]
