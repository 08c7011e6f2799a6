"""Program container: a thin handle over a columnar instruction arena.

A :class:`Program` can be built from instruction objects (builder
APIs, TIK/TBE/CCE frontends, tests), directly from an
:class:`~repro.isa.arena.InstructionArena` (the vectorized lowering fast
path), or from *parts* — arenas placed end to end, each tiled a number
of times (a lowered workload's sub-programs).  Whichever side exists
first, the others are derived lazily:

* object-built programs grow an arena on first columnar access
  (validation, cost columns, scheduler prepass);
* part-built programs concatenate their parts on first ``arena`` read;
  the timing engine reads the parts instead, so a batch of programs is
  concatenated once, not once per program and again per batch;
* arena-built programs materialize instruction objects only when a
  consumer actually iterates rows (functional replay, CCE text,
  encoding) — mirroring how ``TraceEvent`` is a lazy view over the
  columnar trace.

Static validation (flag pairing, scratchpad bounds) runs as masked
column reductions whenever the arena's columns are exact, and falls back
to the per-object walk for exotic rows (scalar ops, img2col, 3-source
vector selects).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..config.core_configs import CoreConfig
from ..errors import IsaError
from .arena import _COLUMN_NAMES as _ARENA_COLUMN_NAMES
from .arena import InstructionArena
from .instructions import (
    OP_CUBE,
    OP_SET,
    OP_WAIT,
    CopyInstr,
    CubeMatmul,
    DecompressInstr,
    Img2ColInstr,
    Instruction,
    SetFlag,
    TransposeInstr,
    VectorInstr,
    WaitFlag,
)
from .memref import MemSpace, Region
from .pipes import Pipe

__all__ = ["Program"]

_SPACE_CAPACITY_ATTR = {
    MemSpace.L0A: "l0a_bytes",
    MemSpace.L0B: "l0b_bytes",
    MemSpace.L0C: "l0c_bytes",
    MemSpace.L1: "l1_bytes",
    MemSpace.UB: "ub_bytes",
}

# Successful columnar validations, keyed by (kind-column identity,
# config).  Validation is a pure function of the non-tag columns plus
# the design point, so retagged memo siblings — which share every such
# column — validate once for the whole family.  The stored arena
# reference pins the column ids against recycling; only success is
# memoized (failures raise and are never recorded).
_VALIDATE_MEMO: Dict[tuple, tuple] = {}
_VALIDATE_MEMO_CAP = 512
_SHARED_COLS = tuple(c for c in _ARENA_COLUMN_NAMES if c != "tag_id")


class Program:
    """An ordered list of instructions for one Ascend core.

    The PSQ dispatches these in order into per-pipe queues; therefore
    program order *within* a pipe is execution order, while cross-pipe
    ordering only exists where flags impose it (Figure 3).
    """

    __slots__ = ("name", "_instructions", "_arena", "_parts")

    def __init__(self, instructions: Optional[List[Instruction]] = None,
                 name: str = "program",
                 arena: Optional[InstructionArena] = None) -> None:
        if arena is not None and instructions is not None:
            raise IsaError("pass instructions or an arena, not both")
        self.name = name
        self._arena = arena
        self._parts: Optional[Tuple[Tuple[InstructionArena, int], ...]] = None
        self._instructions: Optional[List[Instruction]] = (
            instructions if instructions is not None
            else (None if arena is not None else []))

    @classmethod
    def from_arena(cls, arena: InstructionArena, name: str = "program"
                   ) -> "Program":
        return cls(arena=arena, name=name)

    @classmethod
    def from_parts(cls, parts: Sequence[Tuple[InstructionArena, int]],
                   name: str = "program") -> "Program":
        """The program that is ``parts`` — ``(arena, reps)`` pairs — end to
        end, each arena tiled ``reps`` times (see
        :meth:`InstructionArena.concat`)."""
        program = cls(name=name)
        program._instructions = None
        program._parts = tuple(parts)
        return program

    # -- the representations -------------------------------------------------

    @property
    def instructions(self) -> List[Instruction]:
        """The instruction objects (materialized from the arena on first
        access for arena-built programs)."""
        if self._instructions is None:
            self._instructions = self.arena.materialize()
        return self._instructions

    @property
    def arena(self) -> InstructionArena:
        """The columnar form (built from the objects, or concatenated from
        the parts, on first access)."""
        if self._arena is None:
            if self._parts is not None:
                arenas, reps = zip(*self._parts) if self._parts else ((), ())
                self._arena = InstructionArena.concat(arenas, reps)
            else:
                self._arena = InstructionArena.from_instructions(
                    self._instructions)
        return self._arena

    @property
    def parts(self) -> Tuple[Tuple[InstructionArena, int], ...]:
        """``(arena, reps)`` pairs whose concatenation is this program:
        its own parts, else its arena once."""
        if self._parts is not None:
            return self._parts
        return ((self.arena, 1),)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        if self._instructions is not None:
            return len(self._instructions)
        if self._arena is not None:
            return self._arena.n
        return sum(arena.n * reps for arena, reps in self._parts
                   if reps > 0)

    def __getitem__(self, idx):
        return self.instructions[idx]

    def append(self, instr: Instruction) -> None:
        if not isinstance(instr, Instruction):
            raise IsaError(f"not an instruction: {instr!r}")
        instrs = self.instructions
        if instrs is getattr(self._arena, "_objects", None):
            # Don't mutate the arena's cached view in place.
            instrs = self._instructions = list(instrs)
        self._arena = self._parts = None  # stale columns
        instrs.append(instr)

    def extend(self, instrs: Iterable[Instruction]) -> None:
        for instr in instrs:
            self.append(instr)

    # -- introspection --------------------------------------------------------

    def by_pipe(self) -> Dict[Pipe, List[Instruction]]:
        """Split into the per-pipe in-order queues the PSQ would fill."""
        queues: Dict[Pipe, List[Instruction]] = {p: [] for p in Pipe}
        for instr in self.instructions:
            queues[instr.pipe].append(instr)
        return queues

    def pipe_counts(self) -> Dict[Pipe, int]:
        if self._arena is not None:
            counts = np.bincount(self._arena.pipe, minlength=len(Pipe))
            return {p: int(counts[p]) for p in Pipe}
        counts = Counter(instr.pipe for instr in self.instructions)
        return {p: counts.get(p, 0) for p in Pipe}

    def total_macs(self) -> int:
        arena = self.arena
        cube = arena.kind == OP_CUBE
        # m*k from A (slot 1), n from B (slot 2).
        return int(np.sum(arena.r_d0[cube, 1] * arena.r_d1[cube, 1]
                          * arena.r_d1[cube, 2]))

    # -- validation -----------------------------------------------------------

    def validate(self, config: Optional[CoreConfig] = None) -> None:
        """Check flag pairing and (optionally) scratchpad bounds.

        Raises :class:`IsaError` on the first problem.  Flag pairing is a
        conservative count check per (src, dst, event) channel: every wait
        must have a set, otherwise the core deadlocks; every set must have
        a wait, otherwise a flag register leaks (both are programming
        errors on real hardware).

        Runs as masked column reductions over the arena whenever its
        columns are exact; programs holding rows only their objects can
        describe (scalar ops, img2col, 3-source selects) take the
        per-object walk instead.
        """
        arena = self.arena
        if arena.exact:
            key = (id(arena.kind), config)
            hit = _VALIDATE_MEMO.get(key)
            if (hit is not None
                    and all(getattr(hit[0], c) is getattr(arena, c)
                            for c in _SHARED_COLS)):
                return
            self._validate_columns(arena, config)
            _VALIDATE_MEMO[key] = (arena,)
            while len(_VALIDATE_MEMO) > _VALIDATE_MEMO_CAP:
                _VALIDATE_MEMO.pop(next(iter(_VALIDATE_MEMO)))
        else:
            self._validate_objects(config)

    def _validate_columns(self, arena: InstructionArena,
                          config: Optional[CoreConfig]) -> None:
        from .channels import unpack_channel
        packed = arena.packed_channels()
        sets = packed[arena.kind == OP_SET]
        waits = packed[arena.kind == OP_WAIT]
        if sets.size or waits.size:
            chan, idx = np.unique(np.concatenate((sets, waits)),
                                  return_inverse=True)
            n_set = np.bincount(idx[:sets.size], minlength=chan.size)
            n_wait = np.bincount(idx[sets.size:], minlength=chan.size)
            bad = np.nonzero(n_set != n_wait)[0]
            if bad.size:
                src, dst, event = unpack_channel(int(chan[bad[0]]))
                raise IsaError(
                    f"unbalanced flags on {src}->{dst} event {event}: "
                    f"{int(n_set[bad[0]])} set vs {int(n_wait[bad[0]])} wait"
                )
        if config is None:
            return
        ends = arena.region_ends()
        for space, attr in _SPACE_CAPACITY_ATTR.items():
            capacity = getattr(config, attr)
            over = (arena.r_space == int(space)) & (ends > capacity)
            if over.any():
                row = int(np.nonzero(over.any(axis=1))[0][0])
                slot = int(np.nonzero(over[row])[0][0])
                instr = self.instructions[row]
                raise IsaError(
                    f"instruction #{row} ({type(instr).__name__}) overruns "
                    f"{space}: needs [{int(arena.r_offset[row, slot])}, "
                    f"{int(ends[row, slot])}) but {config.name} provides "
                    f"{capacity} bytes"
                )

    def _validate_objects(self, config: Optional[CoreConfig]) -> None:
        sets: Counter = Counter()
        waits: Counter = Counter()
        for instr in self.instructions:
            if isinstance(instr, SetFlag):
                sets[(instr.src_pipe, instr.dst_pipe, instr.event_id)] += 1
            elif isinstance(instr, WaitFlag):
                waits[(instr.src_pipe, instr.dst_pipe, instr.event_id)] += 1
        for channel in set(sets) | set(waits):
            if sets[channel] != waits[channel]:
                src, dst, event = channel
                raise IsaError(
                    f"unbalanced flags on {src}->{dst} event {event}: "
                    f"{sets[channel]} set vs {waits[channel]} wait"
                )
        if config is not None:
            for idx, instr in enumerate(self.instructions):
                for region in _regions_of(instr):
                    self._check_bounds(idx, instr, region, config)

    def _check_bounds(
        self, idx: int, instr: Instruction, region: Region, config: CoreConfig
    ) -> None:
        attr = _SPACE_CAPACITY_ATTR.get(region.space)
        if attr is None:  # GM is unbounded from the core's perspective
            return
        capacity = getattr(config, attr)
        if region.end > capacity:
            raise IsaError(
                f"instruction #{idx} ({type(instr).__name__}) overruns "
                f"{region.space}: needs [{region.offset}, {region.end}) "
                f"but {config.name} provides {capacity} bytes"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return (self.name == other.name
                and self.instructions == other.instructions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Program(name={self.name!r}, {len(self)} instrs)"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        counts = ", ".join(
            f"{pipe}:{count}" for pipe, count in self.pipe_counts().items() if count
        )
        return f"Program({self.name!r}, {len(self)} instrs; {counts})"


def _regions_of(instr: Instruction) -> Tuple[Region, ...]:
    if isinstance(instr, CubeMatmul):
        return (instr.a, instr.b, instr.c)
    if isinstance(instr, VectorInstr):
        return (instr.dst, *instr.srcs)
    if isinstance(instr, (CopyInstr, Img2ColInstr, TransposeInstr, DecompressInstr)):
        return (instr.dst, instr.src)
    return ()
