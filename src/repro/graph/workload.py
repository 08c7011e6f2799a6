"""Per-op workload descriptors — the currency of all performance analysis.

An :class:`OpWorkload` decomposes one op into

* **cube work**: a list of GEMMs (the only thing the cube executes,
  Table 2: convolution / FC / matmul, all via img2col);
* **vector work**: element-passes on the vector unit (normalization,
  activation, format/precision conversion, reductions);
* **bytes**: weight/input/output footprints for bandwidth accounting.

These descriptors feed the compiler's lowering, the Figures 4-8 ratio
profiles, and the Figure 9 bandwidth profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from ..dtypes import DType, FP16
from ..errors import GraphError

__all__ = ["GemmWork", "VectorWork", "OpWorkload"]


@dataclass(frozen=True)
class GemmWork:
    """``count`` identical M x K x N GEMMs with a given source dtype."""

    m: int
    k: int
    n: int
    dtype: DType = FP16
    count: int = 1

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n, self.count) <= 0:
            raise GraphError(f"bad GEMM work {self}")

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n * self.count

    @property
    def a_bytes(self) -> int:
        return int(self.m * self.k * self.dtype.bytes) * self.count

    @property
    def b_bytes(self) -> int:
        return int(self.k * self.n * self.dtype.bytes) * self.count

    @property
    def c_elems(self) -> int:
        return self.m * self.n * self.count


@dataclass(frozen=True)
class VectorWork:
    """``elems`` elements through the vector datapath, ``passes`` times."""

    elems: int
    passes: int = 1
    dtype: DType = FP16

    def __post_init__(self) -> None:
        if self.elems < 0 or self.passes <= 0:
            raise GraphError(f"bad vector work {self}")

    @property
    def elem_passes(self) -> int:
        return self.elems * self.passes

    @property
    def bytes_processed(self) -> int:
        return int(self.elem_passes * self.dtype.bytes)


@dataclass(frozen=True)
class OpWorkload:
    """Everything the performance model needs to know about one op."""

    name: str
    gemms: Tuple[GemmWork, ...] = ()
    vector: Tuple[VectorWork, ...] = ()
    weight_bytes: int = 0
    input_bytes: int = 0
    output_bytes: int = 0

    @property
    def macs(self) -> int:
        return sum(g.macs for g in self.gemms)

    @property
    def vector_elem_passes(self) -> int:
        return sum(v.elem_passes for v in self.vector)

    @property
    def is_cube_heavy(self) -> bool:
        return self.macs > 0

    @staticmethod
    def fused(name: str, works: Sequence["OpWorkload"]) -> "OpWorkload":
        """Fuse workloads in order (e.g. conv + folded BN + activation).

        GEMM and vector work concatenate and weights add up; the input
        is the first workload's, the output the last non-zero one's.
        """
        first = works[0]
        gemms, vector = list(first.gemms), list(first.vector)
        weight_bytes, output_bytes = first.weight_bytes, first.output_bytes
        for work in works[1:]:
            gemms += work.gemms
            vector += work.vector
            weight_bytes += work.weight_bytes
            output_bytes = work.output_bytes or output_bytes
        return OpWorkload(name=name, gemms=tuple(gemms), vector=tuple(vector),
                          weight_bytes=weight_bytes,
                          input_bytes=first.input_bytes,
                          output_bytes=output_bytes)
