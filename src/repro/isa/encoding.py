"""Binary instruction encoding and the Lite core's instruction compression.

Section 3.2: «The instruction compression technique is used in the
Ascend-Lite core to reduce the bandwidth pressure on the NoC.»

Two layers:

* :func:`encode_program` / :func:`decode_program` — a fixed-width binary
  encoding (one 24-byte word per instruction).  The paper does not
  disclose encodings; any fixed-width format exposes the same
  compressibility structure, which is what the experiment measures.
* :func:`compress_program` / :func:`decompress_program` — dictionary
  compression: compiled tile loops repeat a handful of distinct words
  thousands of times, so the most frequent words are replaced by 2-byte
  references into a dictionary shipped once.
"""

from __future__ import annotations

import struct
from collections import Counter
from typing import Dict, List, Tuple

from ..errors import IsaError
from .instructions import (
    OPCODE_OF,
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
from .memref import MemSpace, Region
from .pipes import Pipe
from .program import Program

__all__ = [
    "WORD_BYTES",
    "encode_program",
    "decode_program",
    "compress_program",
    "decompress_program",
    "compression_ratio",
]

WORD_BYTES = 24

# The binary opcode IS the canonical instruction opcode (one shared
# table in isa/instructions.py, also used by the columnar arena).
_OPCODE_OF = OPCODE_OF
_SPACES = list(MemSpace)
_PIPES = list(Pipe)
_DTYPES = ["fp32", "fp16", "int32", "int8", "int4"]
_VOPS = list(VectorOpcode)


def _pack_region(region: Region) -> Tuple[int, int, int, int, int]:
    """(space, offset, dim0, dim1, dtype) — 2-D or flattened-1-D regions.

    The fixed-width word stores up to two dims; rank-3 sources (img2col)
    keep their true shape in the auxiliary field of their instruction.
    """
    if len(region.shape) == 1:
        d0, d1 = region.shape[0], 0
    elif len(region.shape) == 2:
        d0, d1 = region.shape
    else:
        raise IsaError("binary encoding supports rank-1/2 regions")
    return (_SPACES.index(region.space), region.offset, d0, d1,
            _DTYPES.index(region.dtype.name))


def _encode_one(instr: Instruction) -> bytes:
    """One instruction -> one WORD_BYTES word.

    Layout: opcode(1) a(1) b(1) c(1) off0(4) off1(4) off2(4) d0(2) d1(2)
    d2(2) d3(2) — fields are overloaded per opcode.
    """
    op = _OPCODE_OF.get(type(instr))
    if op is None:
        raise IsaError(f"no binary encoding for {type(instr).__name__}")
    a = b = c = 0
    off = [0, 0, 0]
    d = [0, 0, 0, 0]
    if isinstance(instr, CubeMatmul):
        a = _DTYPES.index(instr.a.dtype.name)
        b = int(instr.accumulate)
        off = [instr.a.offset, instr.b.offset, instr.c.offset]
        d = [instr.m, instr.k, instr.n, 0]
    elif isinstance(instr, VectorInstr):
        a = _VOPS.index(instr.op)
        b = len(instr.srcs)
        regions = (instr.dst, *instr.srcs)
        c = _pack_vector_meta(regions)
        off = [r.offset for r in regions[:3]] + [0] * (3 - len(regions[:3]))
        d = [instr.dst.elems & 0xFFFF, instr.dst.elems >> 16,
             0 if instr.scalar is None else 1, 0]
    elif isinstance(instr, (CopyInstr, TransposeInstr, DecompressInstr)):
        src_p = _pack_region(_flatten(instr.src))
        dst_p = _pack_region(_flatten(instr.dst))
        a = src_p[0] | (dst_p[0] << 4)
        b = src_p[4]
        c = dst_p[4]
        off = [instr.src.offset, instr.dst.offset,
               (instr.src.pitch or 0)]
        d = [src_p[2] & 0xFFFF, src_p[3] & 0xFFFF, dst_p[2] & 0xFFFF,
             dst_p[3] & 0xFFFF]
    elif isinstance(instr, Img2ColInstr):
        a = _SPACES.index(instr.src.space)
        b = instr.kernel[0] << 4 | instr.kernel[1]
        c = instr.stride[0] << 4 | instr.stride[1]
        off = [instr.src.offset, instr.dst.offset,
               instr.padding[0] << 4 | instr.padding[1]]
        d = list(instr.src.shape) + [instr.dst.shape[0] & 0xFFFF]
    elif isinstance(instr, ScalarInstr):
        a = min(255, instr.cycles)
    elif isinstance(instr, (SetFlag, WaitFlag)):
        a = _PIPES.index(instr.src_pipe)
        b = _PIPES.index(instr.dst_pipe)
        c = instr.event_id
    elif isinstance(instr, PipeBarrier):
        a = _PIPES.index(instr.barrier_pipe)
    return struct.pack("<BBBBiiiHHHH", op, a, b & 0xFF, c & 0xFF,
                       *off, *[x & 0xFFFF for x in d])


def _flatten(region: Region) -> Region:
    if len(region.shape) <= 2:
        return region
    return Region(region.space, region.offset, (region.elems,), region.dtype)


def _pack_vector_meta(regions) -> int:
    """Pack (space, dtype) of dst and first src into one byte."""
    dst = regions[0]
    meta = _SPACES.index(dst.space) | (_DTYPES.index(dst.dtype.name) << 3)
    return meta


def encode_program(program: Program) -> bytes:
    """Encode a program to its fixed-width binary image."""
    return b"".join(_encode_one(instr) for instr in program)


def decode_program(blob: bytes) -> List[Tuple[int, tuple]]:
    """Decode a binary image into (opcode, fields) tuples.

    Full object reconstruction is only defined for control/flag words
    (the NoC experiment needs sizes and structure, not re-execution; CCE
    text is the round-trippable format).  The decoder is still exact:
    every word parses back to the fields the encoder packed.
    """
    if len(blob) % WORD_BYTES:
        raise IsaError("binary image is not word-aligned")
    out = []
    for i in range(0, len(blob), WORD_BYTES):
        word = struct.unpack("<BBBBiiiHHHH", blob[i:i + WORD_BYTES])
        out.append((word[0], word[1:]))
    return out


# -- dictionary compression ------------------------------------------------------

_MAGIC = b"ICMP"


def compress_program(program: Program, dict_size: int = 255) -> bytes:
    """Compress a program's binary image with a word dictionary.

    The ``dict_size`` most frequent instruction words are stored once in
    a header; the body is a token stream — 1-byte dictionary references
    for hot words, 0xFF-escaped literals for the rest.
    """
    if not 1 <= dict_size <= 255:
        raise IsaError("dict_size must be in [1, 255]")
    words = [_encode_one(instr) for instr in program]
    freq = Counter(words)
    # Only dictionary-worthy if a word repeats (saves WORD_BYTES-1 each).
    entries = [w for w, n in freq.most_common(dict_size) if n > 1]
    index: Dict[bytes, int] = {w: i for i, w in enumerate(entries)}
    body = bytearray()
    for word in words:
        code = index.get(word)
        if code is None:
            body.append(0xFF)
            body.extend(word)
        else:
            body.append(code)
    header = bytearray(_MAGIC)
    header.extend(struct.pack("<HI", len(entries), len(words)))
    for entry in entries:
        header.extend(entry)
    return bytes(header) + bytes(body)


def decompress_program(blob: bytes) -> bytes:
    """Invert :func:`compress_program`, returning the binary image."""
    if blob[:4] != _MAGIC:
        raise IsaError("not a compressed instruction stream")
    n_entries, n_words = struct.unpack("<HI", blob[4:10])
    pos = 10
    entries = []
    for _ in range(n_entries):
        entries.append(blob[pos:pos + WORD_BYTES])
        pos += WORD_BYTES
    out = bytearray()
    for _ in range(n_words):
        token = blob[pos]
        pos += 1
        if token == 0xFF:
            out.extend(blob[pos:pos + WORD_BYTES])
            pos += WORD_BYTES
        else:
            if token >= len(entries):
                raise IsaError(f"dictionary reference {token} out of range")
            out.extend(entries[token])
    return bytes(out)


def compression_ratio(program: Program) -> float:
    """Raw binary size / compressed size for a program."""
    raw = len(encode_program(program))
    packed = len(compress_program(program))
    return raw / packed if packed else 1.0
