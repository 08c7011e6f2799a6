"""CCE — the Level-1 "architecture defined" programming model (Section 5.1).

A textual assembly for the instruction set, so experts can write (and
this repo can round-trip) kernels with every architectural detail
exposed.  One instruction per line::

    copy L1@0:64x32:fp16 GM@0:64x32:fp16:pitch=256
    set_flag MTE2 MTE1 0
    wait_flag MTE2 MTE1 0
    copy L0A@0:64x32:fp16 L1@0:64x32:fp16
    matmul L0A@0:64x32:fp16 L0B@0:32x16:fp16 L0C@0:64x16:fp32 acc
    vec relu UB@0:1024:fp16 UB@0:1024:fp16
    vec muls UB@0:64:fp16 UB@0:64:fp16 scalar=2.0
    img2col L0A@0:196x27:fp16 L1@0:16x16x3:fp16 k=3x3 s=1x1 p=0x0
    scalar nop 2
    barrier M

Comments start with ``#``; blank lines are ignored.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..dtypes import dtype_by_name
from ..errors import IsaError
from ..isa.instructions import (
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
from ..isa.memref import MemSpace, Region
from ..isa.pipes import Pipe
from ..isa.program import Program

__all__ = ["CceAssembler"]


def _format_region(region: Region) -> str:
    dims = "x".join(str(d) for d in region.shape)
    text = f"{region.space.name}@{region.offset}:{dims}:{region.dtype.name}"
    if region.pitch is not None:
        text += f":pitch={region.pitch}"
    return text


def _parse_region(text: str) -> Region:
    try:
        space_part, rest = text.split("@", 1)
        parts = rest.split(":")
        offset = int(parts[0])
        shape = tuple(int(d) for d in parts[1].split("x"))
        dtype = dtype_by_name(parts[2])
        pitch = None
        if len(parts) > 3:
            if not parts[3].startswith("pitch="):
                raise ValueError(f"bad region suffix {parts[3]!r}")
            pitch = int(parts[3][len("pitch="):])
        return Region(MemSpace[space_part], offset, shape, dtype, pitch=pitch)
    except (ValueError, KeyError, IndexError) as exc:
        raise IsaError(f"cannot parse region {text!r}: {exc}") from exc


def _parse_pair(text: str, key: str) -> Tuple[int, int]:
    if not text.startswith(f"{key}="):
        raise IsaError(f"expected {key}=AxB, got {text!r}")
    a, b = text[len(key) + 1 :].split("x")
    return (int(a), int(b))


class CceAssembler:
    """Assembles/disassembles programs to the CCE text format."""

    def disassemble(self, program: Program) -> str:
        lines = [f"# program: {program.name}"]
        for instr in program:
            lines.append(self._disassemble_one(instr))
        return "\n".join(lines) + "\n"

    def _disassemble_one(self, instr: Instruction) -> str:
        if isinstance(instr, CopyInstr):
            return f"copy {_format_region(instr.dst)} {_format_region(instr.src)}"
        if isinstance(instr, CubeMatmul):
            acc = " acc" if instr.accumulate else ""
            return (
                f"matmul {_format_region(instr.a)} {_format_region(instr.b)} "
                f"{_format_region(instr.c)}{acc}"
            )
        if isinstance(instr, VectorInstr):
            srcs = " ".join(_format_region(s) for s in instr.srcs)
            text = f"vec {instr.op.value} {_format_region(instr.dst)} {srcs}"
            if instr.scalar is not None:
                text += f" scalar={instr.scalar!r}"
            return text
        if isinstance(instr, Img2ColInstr):
            return (
                f"img2col {_format_region(instr.dst)} {_format_region(instr.src)} "
                f"k={instr.kernel[0]}x{instr.kernel[1]} "
                f"s={instr.stride[0]}x{instr.stride[1]} "
                f"p={instr.padding[0]}x{instr.padding[1]}"
            )
        if isinstance(instr, TransposeInstr):
            return f"transpose {_format_region(instr.dst)} {_format_region(instr.src)}"
        if isinstance(instr, DecompressInstr):
            return f"decompress {_format_region(instr.dst)} {_format_region(instr.src)}"
        if isinstance(instr, SetFlag):
            return f"set_flag {instr.src_pipe.name} {instr.dst_pipe.name} {instr.event_id}"
        if isinstance(instr, WaitFlag):
            return f"wait_flag {instr.src_pipe.name} {instr.dst_pipe.name} {instr.event_id}"
        if isinstance(instr, ScalarInstr):
            return f"scalar {instr.op} {instr.cycles}"
        if isinstance(instr, PipeBarrier):
            return f"barrier {instr.barrier_pipe.name}"
        raise IsaError(f"cannot disassemble {type(instr).__name__}")

    def assemble(self, text: str, name: str = "cce") -> Program:
        instrs: List[Instruction] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                instrs.append(self._assemble_one(line))
            except IsaError:
                raise
            except Exception as exc:
                raise IsaError(f"line {lineno}: cannot parse {line!r}: {exc}") from exc
        return Program(instrs, name=name)

    def _assemble_one(self, line: str) -> Instruction:
        parts = line.split()
        mnemonic, args = parts[0], parts[1:]
        if mnemonic == "copy":
            return CopyInstr(dst=_parse_region(args[0]), src=_parse_region(args[1]))
        if mnemonic == "matmul":
            accumulate = len(args) > 3 and args[3] == "acc"
            return CubeMatmul(a=_parse_region(args[0]), b=_parse_region(args[1]),
                              c=_parse_region(args[2]), accumulate=accumulate)
        if mnemonic == "vec":
            op = VectorOpcode(args[0])
            scalar: Optional[float] = None
            regions = []
            for token in args[1:]:
                if token.startswith("scalar="):
                    scalar = float(token[len("scalar="):])
                else:
                    regions.append(_parse_region(token))
            return VectorInstr(op=op, dst=regions[0], srcs=tuple(regions[1:]),
                               scalar=scalar)
        if mnemonic == "img2col":
            return Img2ColInstr(
                dst=_parse_region(args[0]), src=_parse_region(args[1]),
                kernel=_parse_pair(args[2], "k"), stride=_parse_pair(args[3], "s"),
                padding=_parse_pair(args[4], "p"),
            )
        if mnemonic == "transpose":
            return TransposeInstr(dst=_parse_region(args[0]),
                                  src=_parse_region(args[1]))
        if mnemonic == "decompress":
            return DecompressInstr(dst=_parse_region(args[0]),
                                   src=_parse_region(args[1]))
        if mnemonic == "set_flag":
            return SetFlag(src_pipe=Pipe[args[0]], dst_pipe=Pipe[args[1]],
                           event_id=int(args[2]))
        if mnemonic == "wait_flag":
            return WaitFlag(src_pipe=Pipe[args[0]], dst_pipe=Pipe[args[1]],
                            event_id=int(args[2]))
        if mnemonic == "scalar":
            return ScalarInstr(op=args[0], cycles=int(args[1]) if len(args) > 1 else 1)
        if mnemonic == "barrier":
            return PipeBarrier(barrier_pipe=Pipe[args[0]])
        raise IsaError(f"unknown mnemonic {mnemonic!r}")
