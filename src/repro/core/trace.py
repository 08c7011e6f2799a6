"""Execution traces: what ran where, when, and how many bytes it moved.

The analysis harness consumes traces to reproduce the paper's per-layer
figures: cube/vector busy-cycle ratios (Figures 4-8) and L1 bandwidth
profiles (Figure 9).

Storage is *columnar*: parallel numpy arrays (program index, pipe,
start, end, interned tag id, move route and byte counts) instead of a
Python list of event objects.  Every aggregate query — ``total_cycles``,
``busy_cycles``, ``span``, L1/GM traffic, per-tag breakdowns — is a
masked reduction over those columns, and the scheduler emits the columns
directly (:meth:`ExecutionTrace.from_columns`, the one construction
path), so no per-event Python objects exist on the hot path.
:class:`TraceEvent` survives as a lazy *view*: ``trace.events`` is a
sequence that materializes events on demand for consumers that want the
row-oriented picture (functional replay debugging, tests, examples).

Tag strings are interned per trace: the arena stores an ``int32`` id per
event plus one shared table of distinct tag strings, so a full BERT
trace holds each layer tag once rather than once per event.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..isa.instructions import (
    CopyInstr,
    CubeMatmul,
    DecompressInstr,
    Img2ColInstr,
    Instruction,
    ScalarInstr,
    SetFlag,
    TransposeInstr,
    VectorInstr,
    WaitFlag,
)
from ..isa.memref import MemSpace
from ..isa.pipes import Pipe

__all__ = ["TraceEvent", "ExecutionTrace", "TraceSummary"]

_MOVE_TYPES = (CopyInstr, Img2ColInstr, TransposeInstr, DecompressInstr)

# Instruction-class codes stored in the ``kind`` column.  They drive the
# functional dispatch and the gantt payload filter without isinstance
# checks per event.
KIND_NONE = 0  # flags, barriers: no architectural state outside the schedule
KIND_CUBE = 1
KIND_VECTOR = 2
KIND_COPY = 3
KIND_IMG2COL = 4
KIND_TRANSPOSE = 5
KIND_DECOMP = 6
KIND_SCALAR = 7

_KIND_OF_TYPE = {
    CubeMatmul: KIND_CUBE,
    VectorInstr: KIND_VECTOR,
    CopyInstr: KIND_COPY,
    Img2ColInstr: KIND_IMG2COL,
    TransposeInstr: KIND_TRANSPOSE,
    DecompressInstr: KIND_DECOMP,
    ScalarInstr: KIND_SCALAR,
}

# Kinds that move bytes between memory spaces (the traffic columns).
_MOVE_KINDS = (KIND_COPY, KIND_IMG2COL, KIND_TRANSPOSE, KIND_DECOMP)

# Kinds with a functional effect on scratchpad/GM state.
FUNCTIONAL_KINDS = (KIND_CUBE, KIND_VECTOR, KIND_COPY, KIND_IMG2COL,
                    KIND_TRANSPOSE, KIND_DECOMP)


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
    :meth:`ExecutionTrace.summary`)."""

    total_cycles: int
    busy_by_pipe: Tuple[int, ...]  # indexed by int(Pipe)
    l1_read_bytes: int
    l1_write_bytes: int
    gm_read_bytes: int
    gm_write_bytes: int

    def busy_cycles(self, pipe: Pipe) -> int:
        return self.busy_by_pipe[pipe]


class _EventsView(Sequence):
    """Lazy, immutable sequence of :class:`TraceEvent` over the arena.

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
            return np.arange(self._trace._n)
        return self._rows

    def __len__(self) -> int:
        if self._rows is None:
            return self._trace._n
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
        instrs = t._instrs
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
            return (
                np.array_equal(a._index[ra], b._index[rb])
                and np.array_equal(a._pipe[ra], b._pipe[rb])
                and np.array_equal(a._start[ra], b._start[rb])
                and np.array_equal(a._end[ra], b._end[rb])
                and all(a._instrs[i] == b._instrs[j]
                        for i, j in zip(ra.tolist(), rb.tolist()))
            )
        if isinstance(other, (list, tuple)):
            if len(other) != len(self):
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<events view: {len(self)} events>"


class ExecutionTrace:
    """All events of one program run, with aggregate queries.

    Internally a set of columns; ``events`` is a lazy row view kept for
    API compatibility.  Aggregates are masked numpy reductions.
    """

    __slots__ = ("_n", "_instrs", "_index", "_pipe", "_start", "_end",
                 "_tag_id", "_kind", "_src_space", "_dst_space",
                 "_src_nbytes", "_dst_nbytes", "_tag_names", "_tag_ids",
                 "_flag_cols")

    def __init__(self, events: Iterable[TraceEvent] = ()) -> None:
        """A trace of ``events`` in the given order (tests, examples);
        the scheduler builds traces through :meth:`from_columns`."""
        events = list(events)
        self._assign([e.instr for e in events], [e.index for e in events],
                      [int(e.pipe) for e in events],
                      [e.start for e in events], [e.end for e in events])

    @classmethod
    def from_columns(cls, instrs: List[Instruction], index, pipe, start, end
                     ) -> "ExecutionTrace":
        """Build a trace directly from scheduler output columns.

        ``instrs`` is the instruction per event *in event order*; the
        numeric columns may be lists or arrays.  This is the scheduler
        hot path: no :class:`TraceEvent` objects are created.
        """
        trace = cls.__new__(cls)
        trace._assign(instrs, index, pipe, start, end)
        return trace

    def _assign(self, instrs: List[Instruction], index, pipe, start, end
                ) -> None:
        """Store the columns and derive tag/kind/traffic ones from
        ``instrs``.

        Compiled tile loops repeat a handful of distinct instruction
        objects thousands of times, so each distinct object (keyed by
        ``id``; the list pins every object alive) is described once and
        its row broadcast by one fancy-index.  Tags are interned in
        first-appearance order.
        """
        self._n = len(instrs)
        self._instrs = instrs
        self._flag_cols = None
        self._index = np.asarray(index, np.int64)
        self._pipe = np.asarray(pipe, np.int8)
        self._start = np.asarray(start, np.int64)
        self._end = np.asarray(end, np.int64)
        tag_ids: Dict[str, int] = {"": 0}
        distinct = dict(zip(map(id, instrs), instrs))
        slot = {key: i for i, key in enumerate(distinct)}
        table = np.zeros((6, len(distinct)), np.int64)
        for i, instr in enumerate(distinct.values()):
            kind = _KIND_OF_TYPE.get(type(instr), KIND_NONE)
            tag_id = tag_ids.setdefault(instr.tag, len(tag_ids))
            if kind in _MOVE_KINDS:
                table[:, i] = (kind, tag_id, instr.src.space,
                               instr.dst.space, instr.src.nbytes,
                               instr.dst.nbytes)
            else:
                table[:, i] = (kind, tag_id, -1, -1, 0, 0)
        cols = table[:, np.array([slot[key] for key in map(id, instrs)],
                                 np.intp)]
        self._tag_ids = tag_ids
        self._tag_names = list(tag_ids)
        self._kind = cols[0].astype(np.int8)
        self._tag_id = cols[1].astype(np.int32)
        self._src_space = cols[2].astype(np.int8)
        self._dst_space = cols[3].astype(np.int8)
        self._src_nbytes = cols[4]
        self._dst_nbytes = cols[5]

    # -- row view -------------------------------------------------------------

    @property
    def events(self) -> _EventsView:
        """Lazy sequence of :class:`TraceEvent` (materialized on access)."""
        return _EventsView(self)

    def _event_at(self, i: int) -> TraceEvent:
        return TraceEvent(int(self._index[i]), self._instrs[i],
                          Pipe(int(self._pipe[i])),
                          int(self._start[i]), int(self._end[i]))

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ExecutionTrace({self._n} events, "
                f"{len(self._tag_names) - 1} tags)")

    # -- aggregate queries (masked reductions) --------------------------------

    @property
    def total_cycles(self) -> int:
        if self._n == 0:
            return 0
        return int(self._end.max())

    def busy_cycles(self, pipe: Pipe, tag: Optional[str] = None) -> int:
        """Sum of occupied cycles on a pipe (optionally for one tag).

        Flag/barrier bookkeeping (1-cycle events with no payload) is
        included; it is negligible against real work.
        """
        mask = self._pipe == int(pipe)
        if tag is not None:
            tag_id = self._tag_ids.get(tag)
            if tag_id is None:
                return 0
            mask &= self._tag_id == tag_id
        return int((self._end[mask] - self._start[mask]).sum())

    def utilization(self, pipe: Pipe) -> float:
        total = self.total_cycles
        if total == 0:
            return 0.0
        return self.busy_cycles(pipe) / total

    def tags(self) -> List[str]:
        """Distinct non-empty tags in first-appearance order.

        The intern table is filled in event order, so it *is* the
        first-appearance order (id 0 is the empty tag).
        """
        return list(self._tag_names[1:])

    def span(self, tag: str) -> Tuple[int, int]:
        """(first start, last end) over events carrying ``tag``."""
        tag_id = self._tag_ids.get(tag)
        if tag_id is None:
            return (0, 0)
        mask = self._tag_id == tag_id
        if not mask.any():  # the empty tag when every event is tagged
            return (0, 0)
        return (int(self._start[mask].min()),
                int(self._end[mask].max()))

    def summary(self) -> "TraceSummary":
        """Makespan, per-pipe busy cycles and L1/GM traffic, vectorized.

        Equivalent to ``total_cycles`` + six ``busy_cycles`` calls +
        ``l1_traffic_bytes`` + ``gm_traffic_bytes`` over the event list.
        """
        cycles = self._end - self._start
        pipes = self._pipe
        busy = tuple(int(cycles[pipes == p].sum()) for p in range(len(Pipe)))
        src_space = self._src_space
        dst_space = self._dst_space
        return TraceSummary(
            total_cycles=self.total_cycles,
            busy_by_pipe=busy,
            l1_read_bytes=int(
                self._src_nbytes[src_space == int(MemSpace.L1)].sum()),
            l1_write_bytes=int(
                self._dst_nbytes[dst_space == int(MemSpace.L1)].sum()),
            gm_read_bytes=int(
                self._dst_nbytes[src_space == int(MemSpace.GM)].sum()),
            gm_write_bytes=int(
                self._src_nbytes[dst_space == int(MemSpace.GM)].sum()),
        )

    # -- bandwidth accounting -------------------------------------------------

    _TAG_ABSENT = object()  # sentinel: tag filter given but never seen

    def _tag_mask(self, tag: Optional[str]):
        """Boolean mask for ``tag``; None means no filter; ``_TAG_ABSENT``
        when the tag was never interned (every masked sum is 0)."""
        if tag is None:
            return None
        tag_id = self._tag_ids.get(tag)
        if tag_id is None:
            return ExecutionTrace._TAG_ABSENT
        return self._tag_id == tag_id

    def l1_traffic_bytes(self, tag: Optional[str] = None) -> Tuple[int, int]:
        """(bytes read from L1, bytes written to L1) by data movement.

        Reads: L1 -> L0A/L0B/UB feeds (MTE1).  Writes: inbound GM -> L1
        (MTE2) and UB -> L1 write-backs (MTE3).  This is the quantity
        Figure 9 profiles.
        """
        selector = self._tag_mask(tag)
        if selector is ExecutionTrace._TAG_ABSENT:
            return (0, 0)
        l1 = int(MemSpace.L1)
        read_mask = self._src_space == l1
        write_mask = self._dst_space == l1
        if selector is not None:
            read_mask &= selector
            write_mask &= selector
        return (int(self._src_nbytes[read_mask].sum()),
                int(self._dst_nbytes[write_mask].sum()))

    def moved_bytes(self, src: MemSpace, dst: MemSpace,
                    tag: Optional[str] = None) -> int:
        """Bytes moved along one (src, dst) space pair."""
        selector = self._tag_mask(tag)
        if selector is ExecutionTrace._TAG_ABSENT:
            return 0
        mask = (self._src_space == int(src)) \
            & (self._dst_space == int(dst))
        if selector is not None:
            mask &= selector
        column = self._src_nbytes if src is not MemSpace.GM else self._dst_nbytes
        return int(column[mask].sum())

    def gm_traffic_bytes(self, tag: Optional[str] = None) -> Tuple[int, int]:
        """(bytes read from GM, bytes written to GM) — BIU/LLC traffic."""
        selector = self._tag_mask(tag)
        if selector is ExecutionTrace._TAG_ABSENT:
            return (0, 0)
        gm = int(MemSpace.GM)
        read_mask = self._src_space == gm
        write_mask = self._dst_space == gm
        if selector is not None:
            read_mask &= selector
            write_mask &= selector
        return (int(self._dst_nbytes[read_mask].sum()),
                int(self._src_nbytes[write_mask].sum()))

    def traffic_by_tag(self) -> Dict[str, Tuple[int, int, int, int]]:
        """Per-tag ``(l1_read, l1_write, gm_read, gm_write)`` bytes.

        A *complete partition* of the summary totals: every event lands
        in exactly one bucket, with untagged events under the ``""`` key,
        so summing any column over the returned dict equals the matching
        :meth:`summary` total.  (``tags()`` deliberately excludes the
        empty tag; per-tag consumers that dropped the untagged bucket
        used to under-report traffic against the one-pass summary —
        the equivalence is now pinned by tests.)

        Buckets are keyed by tag name in first-appearance order; only
        tags that actually carry events appear.
        """
        tag_ids = self._tag_id
        n_tags = len(self._tag_names)
        sums = np.zeros((4, n_tags), np.int64)
        l1 = int(MemSpace.L1)
        gm = int(MemSpace.GM)
        src_space = self._src_space
        dst_space = self._dst_space
        for row, (space_col, byte_col) in enumerate((
                (src_space == l1, self._src_nbytes),   # read from L1
                (dst_space == l1, self._dst_nbytes),   # written to L1
                (src_space == gm, self._dst_nbytes),   # read from GM
                (dst_space == gm, self._src_nbytes))):  # written to GM
            mask = space_col
            np.add.at(sums[row], tag_ids[mask], byte_col[mask])
        distinct, first = np.unique(tag_ids, return_index=True)
        names = self._tag_names
        return {
            names[tag_id]: tuple(int(sums[row, tag_id]) for row in range(4))
            for tag_id in distinct[np.argsort(first)]
        }

    # -- flag-channel columns ---------------------------------------------------

    def flag_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(wait mask, set mask, packed channel) columns, derived lazily.

        The arena does not store flag metadata per event; this derives it
        once from the instruction list (memoized per distinct instruction
        object, so compiled tile loops pay one probe per occurrence) and
        caches the result.  ``packed`` holds the
        :func:`~repro.isa.channels.pack_channel` id for flag events and
        -1 elsewhere.  Consumed by the profiling layer (wait histograms,
        Perfetto flow events).
        """
        if self._flag_cols is not None:
            return self._flag_cols
        from ..isa.channels import pack_channel

        n = self._n
        wait = np.zeros(n, bool)
        set_ = np.zeros(n, bool)
        packed = np.full(n, -1, np.int64)
        memo: Dict[int, tuple] = {}
        memo_get = memo.get
        for i, instr in enumerate(self._instrs):
            key = id(instr)
            rec = memo_get(key)
            if rec is None:
                cls = type(instr)
                if cls is WaitFlag:
                    rec = (True, False, pack_channel(
                        instr.src_pipe, instr.dst_pipe, instr.event_id))
                elif cls is SetFlag:
                    rec = (False, True, pack_channel(
                        instr.src_pipe, instr.dst_pipe, instr.event_id))
                else:
                    rec = (False, False, -1)
                memo[key] = rec
            if rec[2] >= 0:
                wait[i], set_[i], packed[i] = rec
        self._flag_cols = (wait, set_, packed)
        return self._flag_cols

    def per_tag_busy(self, pipe: Pipe) -> Dict[str, int]:
        mask = self._pipe == int(pipe)
        tag_ids = self._tag_id[mask]
        if tag_ids.size == 0:
            return {}
        cycles = (self._end - self._start)[mask]
        sums = np.zeros(len(self._tag_names), np.int64)
        np.add.at(sums, tag_ids, cycles)
        # Report tags in first-occurrence order among this pipe's events.
        distinct, first = np.unique(tag_ids, return_index=True)
        names = self._tag_names
        return {
            names[tag_id]: int(sums[tag_id])
            for tag_id in distinct[np.argsort(first)]
            if tag_id != 0
        }

    # -- columnar access ------------------------------------------------------
    #
    # The trace's columns for vectorized consumers (gantt binning,
    # benchmarks).  Treat them as read-only: they alias trace storage.

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

    @property
    def kinds(self) -> np.ndarray:
        """Instruction-class codes (the module-level ``KIND_*`` constants)."""
        return self._kind

    @property
    def src_spaces(self) -> np.ndarray:
        """Source :class:`~repro.isa.memref.MemSpace` per event (-1: no move)."""
        return self._src_space

    @property
    def dst_spaces(self) -> np.ndarray:
        """Destination memory space per event (-1 for non-moves)."""
        return self._dst_space

    @property
    def src_bytes(self) -> np.ndarray:
        """Bytes read from the source space per event (0 for non-moves)."""
        return self._src_nbytes

    @property
    def dst_bytes(self) -> np.ndarray:
        """Bytes written to the destination space per event (0 for non-moves)."""
        return self._dst_nbytes

    @property
    def tag_ids(self) -> np.ndarray:
        """Interned tag id per event (see :attr:`tag_table`)."""
        return self._tag_id

    @property
    def tag_table(self) -> Tuple[str, ...]:
        """Interned tag strings indexed by :attr:`tag_ids` (id 0 is ``""``)."""
        return tuple(self._tag_names)

    # -- functional-execution support -----------------------------------------

    def functional_instructions(self) -> List[Instruction]:
        """Instructions with architectural effect, in causal order.

        Flags, barriers and scalar bookkeeping carry no state outside the
        schedule, so functional replay skips them.
        """
        instrs = self._instrs
        return [instrs[i]
                for i in np.nonzero(np.isin(self._kind, FUNCTIONAL_KINDS))[0]]
