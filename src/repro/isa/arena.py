"""Columnar instruction arena: a lowered program as parallel numpy columns.

PR 2 made traces columnar; this module pushes the same move down into the
compiler/ISA tier.  An :class:`InstructionArena` holds one lowered
program as parallel numpy columns — opcode kind, executing pipe, flag
channel (src pipe / dst pipe / event id), up to three operand regions
(space, offset, dims, pitch, dtype id), vector opcode / scalar immediate,
cube accumulate bit, interned tag ids — so that

* the cost model prices the whole program in a handful of vectorized
  expressions (:meth:`~repro.core.costs.CostModel.cost_columns`),
* static validation is masked column reductions
  (:meth:`~repro.isa.program.Program.validate`), and
* the timing engine's prepass reads the columns directly instead of
  dispatching per instruction object.

:class:`~repro.isa.instructions.Instruction` dataclasses survive as a
*lazy view* (mirroring ``TraceEvent`` over the trace arena):
:meth:`InstructionArena.materialize` rebuilds value-identical objects on
demand for consumers that want rows (functional replay, CCE text,
encoding, tests).

Region slots: slot 0 is the destination (``c`` for matmuls), slot 1 the
first source (``a``), slot 2 the second source (``b``).  ``r_d1 == 0``
marks a rank-1 region; ``r_pitch == 0`` means contiguous;
``r_space == -1`` marks an empty slot.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..dtypes import FP16, FP32, INT4, INT8, INT32
from ..errors import IsaError
from .instructions import (
    OP_BARRIER,
    OP_COPY,
    OP_CUBE,
    OP_DECOMP,
    OP_IMG2COL,
    OP_SCALAR,
    OP_SET,
    OP_TRANSPOSE,
    OP_VECTOR,
    OP_WAIT,
    OPCODE_OF,
    CopyInstr,
    CubeMatmul,
    DecompressInstr,
    Instruction,
    PipeBarrier,
    ScalarInstr,
    SetFlag,
    TransposeInstr,
    VectorInstr,
    VectorOpcode,
    WaitFlag,
)
from .memref import MemSpace, Region
from .pipes import Pipe

__all__ = ["InstructionArena", "DTYPE_TABLE", "DTYPE_ID", "DTYPE_BITS",
           "MOVE_OPS", "FLAG_OPS"]

# Canonical dtype id table (same order as the binary encoding's).
DTYPE_TABLE = (FP32, FP16, INT32, INT8, INT4)
DTYPE_ID: Dict[str, int] = {dt.name: i for i, dt in enumerate(DTYPE_TABLE)}
DTYPE_BITS = np.array([dt.bits for dt in DTYPE_TABLE], np.int64)

MOVE_OPS = (OP_COPY, OP_IMG2COL, OP_TRANSPOSE, OP_DECOMP)
FLAG_OPS = (OP_SET, OP_WAIT, OP_BARRIER)

_VOPS: Tuple[VectorOpcode, ...] = tuple(VectorOpcode)
_VOP_ID: Dict[VectorOpcode, int] = {op: i for i, op in enumerate(_VOPS)}

# Kinds the arena can rebuild as objects without a retained object list
# (ScalarInstr carries an op string and Img2ColInstr a 3-D source plus
# kernel metadata that the columns do not encode).
_MATERIALIZABLE = frozenset(
    (OP_CUBE, OP_VECTOR, OP_COPY, OP_TRANSPOSE, OP_DECOMP, OP_SET,
     OP_WAIT, OP_BARRIER))

# Column name -> (dtype, region-slot rank).  Scalar columns have shape
# (n,); region columns have shape (n, 3).
_COLUMNS = (
    ("kind", np.int8, 1),
    ("pipe", np.int8, 1),
    ("tag_id", np.int32, 1),
    ("flag_src", np.int8, 1),
    ("flag_dst", np.int8, 1),
    ("event", np.int32, 1),
    ("vop", np.int16, 1),
    ("scalar", np.float64, 1),
    ("accumulate", np.int8, 1),
    ("misc", np.int64, 1),
    ("r_space", np.int8, 2),
    ("r_offset", np.int64, 2),
    ("r_d0", np.int64, 2),
    ("r_d1", np.int64, 2),
    ("r_pitch", np.int64, 2),
    ("r_dtype", np.int8, 2),
)
_COLUMN_NAMES = tuple(name for name, _, _ in _COLUMNS)


class InstructionArena:
    """One lowered program as parallel columns (see module docstring)."""

    __slots__ = (*_COLUMN_NAMES, "n", "tags", "exact", "repeats",
                 "_objects", "_nbytes", "_elems")

    def __init__(self, n: int, tags: Optional[List[str]] = None) -> None:
        self.n = n
        self.tags: List[str] = tags if tags is not None else [""]
        # ``exact`` means the columns alone fully describe every row; it
        # turns False when a row needs its retained object (scalar-op
        # strings, img2col metadata, >2 vector sources).
        self.exact = True
        # (start_row, block_rows, reps) segments recorded by concat for
        # sub-programs tiled more than once: rows [start, start + block *
        # reps) are reps verbatim copies of a block.  Pure metadata — the
        # timing engine uses it to prove steady-state shift invariance
        # and skip re-walking identical blocks; dropping it only costs
        # speed, never correctness.
        self.repeats: List[Tuple[int, int, int]] = []
        self._objects: Optional[List[Instruction]] = None
        self._nbytes: Optional[np.ndarray] = None
        self._elems: Optional[np.ndarray] = None
        for name, dtype, rank in _COLUMNS:
            shape = n if rank == 1 else (n, 3)
            if name in ("flag_src", "flag_dst", "event", "vop", "r_space"):
                setattr(self, name, np.full(shape, -1, dtype))
            elif name == "scalar":
                setattr(self, name, np.full(shape, np.nan, dtype))
            else:
                setattr(self, name, np.zeros(shape, dtype))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InstructionArena({self.n} instrs, {len(self.tags) - 1} tags)"

    # -- derived columns ------------------------------------------------------

    def intern(self, tag: str) -> int:
        """Id for ``tag`` in this arena's tag table (interning it)."""
        try:
            return self.tags.index(tag)
        except ValueError:
            self.tags.append(tag)
            return len(self.tags) - 1

    @property
    def elems(self) -> np.ndarray:
        """(n, 3) element counts per region slot (0 for empty slots)."""
        if self._elems is None:
            d1 = np.where(self.r_d1 > 0, self.r_d1, 1)
            self._elems = np.where(self.r_space >= 0, self.r_d0 * d1, 0)
        return self._elems

    @property
    def nbytes(self) -> np.ndarray:
        """(n, 3) payload bytes per region slot (``Region.nbytes``)."""
        if self._nbytes is None:
            bits = DTYPE_BITS[self.r_dtype]
            self._nbytes = (self.elems * bits + 7) // 8
        return self._nbytes

    def region_ends(self) -> np.ndarray:
        """(n, 3) ``Region.end`` per slot: offset + footprint.

        Footprint includes pitch gaps: ``(d0 - 1) * pitch + row_bytes``
        for pitched rank-2 regions, payload bytes otherwise.
        """
        bits = DTYPE_BITS[self.r_dtype]
        row_bytes = (self.r_d1 * bits + 7) // 8
        pitched = (self.r_d0 - 1) * self.r_pitch + row_bytes
        footprint = np.where(self.r_pitch > 0, pitched, self.nbytes)
        return self.r_offset + footprint

    def packed_channels(self) -> np.ndarray:
        """Per-row packed flag channel ints (see ``isa.channels``); -1 for
        rows that are not set/wait flags."""
        from .channels import N_PIPES
        packed = ((self.event.astype(np.int64) * N_PIPES + self.flag_src)
                  * N_PIPES + self.flag_dst)
        is_flag = (self.kind == OP_SET) | (self.kind == OP_WAIT)
        return np.where(is_flag, packed, -1)

    # -- construction from objects (builders, frontends, exotic programs) -----

    @classmethod
    def from_instructions(cls, instrs: Sequence[Instruction]
                          ) -> "InstructionArena":
        """Columns for an existing instruction list.

        The list is retained as the materialized view, so this works for
        every instruction class — including the ones whose columns alone
        could not rebuild them (scalar ops, img2col).
        """
        instrs = list(instrs)
        arena = cls(len(instrs))
        arena._objects = instrs
        memo: Dict[int, tuple] = {}
        rows: List[tuple] = []
        for instr in instrs:
            key = id(instr)
            rec = memo.get(key)
            if rec is None:
                rec = arena._row_of(instr)
                memo[key] = rec
            rows.append(rec)
        if rows:
            for col, name in enumerate(_COLUMN_NAMES):
                column = getattr(arena, name)
                values = [row[col] for row in rows]
                column[...] = np.asarray(
                    values, column.dtype).reshape(column.shape)
        return arena

    def _row_of(self, instr: Instruction) -> tuple:
        """One instruction -> a tuple in ``_COLUMNS`` order."""
        kind = OPCODE_OF.get(type(instr))
        if kind is None:
            raise IsaError(f"no arena row for {type(instr).__name__}")
        tag_id = self.intern(instr.tag)
        flag_src = flag_dst = -1
        event = -1
        vop = -1
        scalar = np.nan
        accumulate = 0
        misc = 0
        regions: Tuple[Optional[Region], ...] = (None, None, None)
        if kind == OP_CUBE:
            regions = (instr.c, instr.a, instr.b)
            accumulate = int(instr.accumulate)
        elif kind == OP_VECTOR:
            vop = _VOP_ID[instr.op]
            srcs = instr.srcs[:2]
            regions = (instr.dst, *srcs, *(None,) * (2 - len(srcs)))
            if len(instr.srcs) > 2:  # e.g. SELECT_GE — objects authoritative
                self.exact = False
            if instr.scalar is not None:
                scalar = float(instr.scalar)
        elif kind in MOVE_OPS:
            regions = (instr.dst, instr.src, None)
        elif kind in (OP_SET, OP_WAIT):
            flag_src = int(instr.src_pipe)
            flag_dst = int(instr.dst_pipe)
            event = instr.event_id
        elif kind == OP_SCALAR:
            misc = instr.cycles
            self.exact = False  # op string lives only on the object
        elif kind == OP_IMG2COL:
            self.exact = False  # kernel/stride/padding live on the object
        # OP_BARRIER carries only its pipe.
        r_space = [-1, -1, -1]
        r_offset = [0, 0, 0]
        r_d0 = [0, 0, 0]
        r_d1 = [0, 0, 0]
        r_pitch = [0, 0, 0]
        r_dtype = [0, 0, 0]
        for slot, region in enumerate(regions):
            if region is None:
                continue
            r_space[slot] = int(region.space)
            r_offset[slot] = region.offset
            shape = region.shape
            if len(shape) == 1:
                r_d0[slot] = shape[0]
            elif len(shape) == 2:
                r_d0[slot], r_d1[slot] = shape
            else:  # rank-3 (img2col): flatten; objects stay authoritative
                r_d0[slot] = region.elems
            r_pitch[slot] = region.pitch or 0
            r_dtype[slot] = DTYPE_ID[region.dtype.name]
        return (kind, int(instr.pipe), tag_id, flag_src, flag_dst, event,
                vop, scalar, accumulate, misc, r_space, r_offset, r_d0,
                r_d1, r_pitch, r_dtype)

    # -- lazy object view -----------------------------------------------------

    def materialize(self) -> List[Instruction]:
        """Value-identical instruction objects for every row.

        Flags are interned (repeated emissions share one object), which
        restores the per-object memoization downstream consumers rely on.
        """
        if self._objects is not None:
            return self._objects
        missing = set(self._kind_set()) - _MATERIALIZABLE
        if missing or not self.exact:
            raise IsaError(
                "arena rows cannot be materialized without the original "
                f"objects (opcodes {sorted(missing)}, exact={self.exact})")
        flag_cache: Dict[tuple, Instruction] = {}
        out: List[Instruction] = []
        tags = self.tags
        kind = self.kind.tolist()
        tag_id = self.tag_id.tolist()
        flag_src = self.flag_src.tolist()
        flag_dst = self.flag_dst.tolist()
        event = self.event.tolist()
        vop = self.vop.tolist()
        scalar = self.scalar.tolist()
        accumulate = self.accumulate.tolist()
        pipe = self.pipe.tolist()
        r_space = self.r_space.tolist()
        r_offset = self.r_offset.tolist()
        r_d0 = self.r_d0.tolist()
        r_d1 = self.r_d1.tolist()
        r_pitch = self.r_pitch.tolist()
        r_dtype = self.r_dtype.tolist()

        def region(i: int, slot: int) -> Optional[Region]:
            space = r_space[i][slot]
            if space < 0:
                return None
            d0, d1 = r_d0[i][slot], r_d1[i][slot]
            return Region(MemSpace(space), r_offset[i][slot],
                          (d0,) if d1 == 0 else (d0, d1),
                          DTYPE_TABLE[r_dtype[i][slot]],
                          pitch=r_pitch[i][slot] or None)

        for i in range(self.n):
            op = kind[i]
            tag = tags[tag_id[i]]
            if op == OP_SET or op == OP_WAIT:
                key = (op, flag_src[i], flag_dst[i], event[i], tag)
                instr = flag_cache.get(key)
                if instr is None:
                    cls = SetFlag if op == OP_SET else WaitFlag
                    instr = cls(src_pipe=Pipe(flag_src[i]),
                                dst_pipe=Pipe(flag_dst[i]),
                                event_id=event[i], tag=tag)
                    flag_cache[key] = instr
            elif op == OP_COPY:
                instr = CopyInstr(dst=region(i, 0), src=region(i, 1), tag=tag)
            elif op == OP_CUBE:
                instr = CubeMatmul(a=region(i, 1), b=region(i, 2),
                                   c=region(i, 0),
                                   accumulate=bool(accumulate[i]), tag=tag)
            elif op == OP_VECTOR:
                srcs = tuple(r for r in (region(i, 1), region(i, 2))
                             if r is not None)
                s = scalar[i]
                instr = VectorInstr(op=_VOPS[vop[i]], dst=region(i, 0),
                                    srcs=srcs,
                                    scalar=None if s != s else s, tag=tag)
            elif op == OP_TRANSPOSE:
                instr = TransposeInstr(dst=region(i, 0), src=region(i, 1),
                                       tag=tag)
            elif op == OP_DECOMP:
                instr = DecompressInstr(dst=region(i, 0), src=region(i, 1),
                                        tag=tag)
            else:  # OP_BARRIER
                instr = PipeBarrier(barrier_pipe=Pipe(pipe[i]), tag=tag)
            out.append(instr)
        self._objects = out
        return out

    def _kind_set(self) -> List[int]:
        return [int(k) for k in np.unique(self.kind)]

    # -- structural ops -------------------------------------------------------

    def retagged(self, tag: str) -> "InstructionArena":
        """A copy of this arena with every row's tag replaced by ``tag``.

        Column arrays are *shared* with the original (they are never
        mutated after lowering), so retagging a memoized sub-program is
        O(n) in the tag-id column only.  The materialized-object cache is
        dropped — objects embed tag strings.  Returns ``self`` unchanged
        when the arena already carries exactly ``tag`` on every row.
        """
        tags = ["", tag] if tag else [""]
        if self.tags == tags:
            return self
        out = InstructionArena.__new__(InstructionArena)
        for name in _COLUMN_NAMES:
            setattr(out, name, getattr(self, name))
        out.n = self.n
        out.tags = tags
        out.exact = self.exact
        out.repeats = list(self.repeats)
        out._objects = None
        out._nbytes = self._nbytes
        out._elems = self._elems
        out.tag_id = (np.ones(self.n, np.int32) if tag
                      else np.zeros(self.n, np.int32))
        return out

    @classmethod
    def concat(cls, arenas: Sequence["InstructionArena"],
               repeats: Optional[Sequence[int]] = None) -> "InstructionArena":
        """Concatenate arenas (each optionally tiled ``repeats[i]`` times).

        Tag tables are merged and tag-id columns remapped.
        """
        arenas = list(arenas)
        repeats = list(repeats) if repeats is not None else [1] * len(arenas)
        out = cls(0)
        out.exact = all(a.exact for a in arenas)
        pieces: Dict[str, List[np.ndarray]] = {n: [] for n in _COLUMN_NAMES}
        objects: Optional[List[Instruction]] = None if out.exact else []
        total = 0
        for arena, reps in zip(arenas, repeats):
            if reps <= 0 or arena.n == 0:
                continue
            if reps > 1:
                out.repeats.append((total, arena.n, reps))
            else:
                out.repeats.extend((total + start, block, r)
                                   for start, block, r in arena.repeats)
            if objects is not None:  # inexact rows need their objects
                objects.extend(arena.materialize() * reps)
            remap = np.array([out.intern(t) for t in arena.tags], np.int32)
            for name in _COLUMN_NAMES:
                column = getattr(arena, name)
                if name == "tag_id":
                    column = remap[column]
                if reps > 1:
                    tile = (reps,) if column.ndim == 1 else (reps, 1)
                    column = np.tile(column, tile)
                pieces[name].append(column)
            total += arena.n * reps
        out.n = total
        out._objects = objects
        for name, dtype, rank in _COLUMNS:
            if pieces[name]:
                setattr(out, name, np.concatenate(pieces[name]))
            else:
                shape = 0 if rank == 1 else (0, 3)
                setattr(out, name, np.zeros(shape, dtype))
        return out
