"""The scalar cost model: the oracle ``CostModel.cost_columns`` is compared to.

A copy of the per-instruction pricing :class:`repro.core.costs.CostModel`
and :class:`repro.memory.bandwidth.DatapathModel` carried before every
production caller priced whole arenas in one columnar pass.  ``cost``
prices one instruction object, ``cube_cycles`` one GEMM tile and
``transfer_cycles`` one bus move.  Each takes the production model only
for its design point (tile shape, bus widths, vector width), so the
formulas here are independent of the column arithmetic they check.

``tests/core/oracle.py`` (the fixpoint scheduler) and
``tests/compiler/tiling_oracle.py`` (the scalar tiling search) price
through it; the arena, lowering and drain suites assert
``cost_columns`` equals ``cost`` row for row.
"""

from __future__ import annotations

import math

from repro.core.costs import _CUBE_STARTUP, _FLAG_COST, _VEC_STARTUP, CostModel
from repro.errors import IsaError
from repro.isa.instructions import (
    CopyInstr,
    CubeMatmul,
    DecompressInstr,
    Img2ColInstr,
    Instruction,
    PipeBarrier,
    ScalarInstr,
    SetFlag,
    TransposeInstr,
    VectorInstr,
    VectorOpcode,
    WaitFlag,
)
from repro.isa.memref import MemSpace
from repro.memory.bandwidth import DatapathModel, route_for

__all__ = ["cost", "cube_cycles", "transfer_cycles"]

# Exact-type dispatch classes for the two most frequent cost shapes:
# 1 = bus move priced by the datapath, 2 = unit-cost synchronization.
_COST_KIND = {
    CopyInstr: 1,
    Img2ColInstr: 1,
    TransposeInstr: 1,
    DecompressInstr: 1,
    SetFlag: 2,
    WaitFlag: 2,
    PipeBarrier: 2,
}


def transfer_cycles(datapath: DatapathModel, src: MemSpace, dst: MemSpace,
                    nbytes: int) -> int:
    """Cycles to move ``nbytes`` from ``src`` to ``dst``."""
    if nbytes <= 0:
        return datapath.TRANSFER_OVERHEAD_CYCLES
    width = datapath.bytes_per_cycle(route_for(src, dst))
    return datapath.TRANSFER_OVERHEAD_CYCLES + math.ceil(nbytes / width)


def cube_cycles(costs: CostModel, m: int, k: int, n: int, dtype) -> int:
    """Cycles of one CubeMatmul of an m x k x n GEMM tile."""
    m0, k0, n0 = costs.cube_tile_shape(dtype)
    tiles = math.ceil(m / m0) * math.ceil(k / k0) * math.ceil(n / n0)
    return _CUBE_STARTUP + tiles


def cost(costs: CostModel, instr: Instruction) -> int:
    """Cycles the instruction occupies its pipe."""
    # Exact-type fast path (every ISA class is final in practice);
    # the isinstance chain below remains as the subclass fallback.
    kind = _COST_KIND.get(type(instr))
    if kind == 1:
        return transfer_cycles(costs.datapath, instr.src.space,
                               instr.dst.space, instr.nbytes)
    if kind == 2:
        return _FLAG_COST
    if isinstance(instr, CubeMatmul):
        return cube_cycles(costs, instr.m, instr.k, instr.n, instr.a.dtype)
    if isinstance(instr, VectorInstr):
        elem_bytes = (instr.srcs[0].dtype if instr.srcs else instr.dst.dtype).bytes
        if instr.op in (VectorOpcode.COPY, VectorOpcode.CAST) and (
            instr.dst.space is MemSpace.L0C
            or any(s.space is MemSpace.L0C for s in instr.srcs)
        ):
            # Moving cube results L0C <-> UB rides the wide UB port
            # (Table 5's UB bus), not the vector ALU datapath.
            nbytes = instr.elems * elem_bytes
            return _VEC_STARTUP + math.ceil(
                nbytes / costs.config.ub_bytes_per_cycle
            )
        return costs.vector_cycles(instr.elems, elem_bytes, instr.op.passes)
    if isinstance(instr, (CopyInstr, Img2ColInstr, TransposeInstr, DecompressInstr)):
        src, dst = instr.src.space, instr.dst.space
        return transfer_cycles(costs.datapath, src, dst, instr.nbytes)
    if isinstance(instr, ScalarInstr):
        return instr.cycles
    if isinstance(instr, (SetFlag, WaitFlag, PipeBarrier)):
        return _FLAG_COST
    raise IsaError(f"no cost model for {type(instr).__name__}")
