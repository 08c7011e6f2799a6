"""Op node types of the graph IR and their workload decompositions.

The mapping of ops to execution units follows Table 2: convolution / FC /
matmul run on the cube (after img2col); normalization, activation,
pooling, precision conversion and depthwise convolutions run on the
vector unit.  Depthwise convolution on the vector unit is what gives
MobileNet its sub-1 cube/vector ratios in Figure 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..dtypes import DType, FP16, accumulator_for
from ..errors import GraphError
from .tensor import TensorSpec
from .workload import GemmWork, OpWorkload, VectorWork

__all__ = [
    "Op",
    "Input",
    "Conv2D",
    "DepthwiseConv2D",
    "Dense",
    "BatchMatMul",
    "Activation",
    "BatchNorm",
    "LayerNorm",
    "Softmax",
    "Pool2D",
    "GlobalAvgPool",
    "Add",
    "Embedding",
    "Reshape",
    "Upsample2D",
    "CvOp",
    "CV_OP_PASSES",
    "ACTIVATION_PASSES",
]

# Vector datapath passes per activation kind (transcendentals iterate).
ACTIVATION_PASSES: Dict[str, int] = {
    "relu": 1,
    "relu6": 2,
    "gelu": 8,
    "tanh": 6,
    "sigmoid": 6,
    "swish": 7,
}


@dataclass(frozen=True)
class Op:
    """Base graph node.

    Attributes:
        name: unique node name.
        inputs: tensors consumed.
        output: tensor produced (single-output IR; enough for these nets).
        group: layer-group label used by the per-layer profiling figures
            (e.g. every op of a ResNet bottleneck block shares a group).
    """

    name: str
    inputs: Tuple[TensorSpec, ...]
    output: TensorSpec
    group: str = ""

    def workload(self) -> OpWorkload:
        raise NotImplementedError

    @property
    def input_bytes(self) -> int:
        return sum(t.nbytes for t in self.inputs)


@dataclass(frozen=True)
class Input(Op):
    """Graph input placeholder; does no work."""

    def workload(self) -> OpWorkload:
        return OpWorkload(name=self.name, output_bytes=self.output.nbytes)


@dataclass(frozen=True)
class Conv2D(Op):
    """Standard convolution, lowered to GEMM via img2col.

    Input (B, H, W, Cin); weight (KH, KW, Cin, Cout); output
    (B, OH, OW, Cout).  GEMM: m = B*OH*OW, k = KH*KW*Cin, n = Cout.
    """

    kernel: Tuple[int, int] = (1, 1)
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (0, 0)
    out_channels: int = 0
    bias: bool = True

    def __post_init__(self) -> None:
        if self.out_channels <= 0:
            raise GraphError(f"{self.name}: out_channels must be positive")

    @property
    def in_channels(self) -> int:
        return self.inputs[0].shape[-1]

    @property
    def weight_elems(self) -> int:
        kh, kw = self.kernel
        return kh * kw * self.in_channels * self.out_channels

    def workload(self) -> OpWorkload:
        b, oh, ow, cout = self.output.shape
        kh, kw = self.kernel
        gemm = GemmWork(
            m=b * oh * ow,
            k=kh * kw * self.in_channels,
            n=cout,
            dtype=self.output.dtype,
        )
        vec = []
        if self.bias:
            vec.append(VectorWork(self.output.elems, passes=1, dtype=self.output.dtype))
        return OpWorkload(
            name=self.name,
            gemms=(gemm,),
            vector=tuple(vec),
            weight_bytes=int(self.weight_elems * self.output.dtype.bytes),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


@dataclass(frozen=True)
class DepthwiseConv2D(Op):
    """Depthwise convolution.

    With one input channel per filter there is no K-dimension reuse, so
    the cube's 16x data amplification cannot apply; Ascend executes these
    on the vector unit (one fused MAC pass per kernel tap).
    """

    kernel: Tuple[int, int] = (3, 3)
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (1, 1)
    bias: bool = True

    @property
    def channels(self) -> int:
        return self.inputs[0].shape[-1]

    def workload(self) -> OpWorkload:
        kh, kw = self.kernel
        taps = kh * kw
        out_elems = self.output.elems
        vec = [VectorWork(out_elems * taps, passes=1, dtype=self.output.dtype)]
        if self.bias:
            vec.append(VectorWork(out_elems, passes=1, dtype=self.output.dtype))
        return OpWorkload(
            name=self.name,
            vector=tuple(vec),
            weight_bytes=int(taps * self.channels * self.output.dtype.bytes),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


@dataclass(frozen=True)
class Dense(Op):
    """Fully-connected layer: (..., K) @ (K, N) -> (..., N)."""

    units: int = 0
    bias: bool = True

    def __post_init__(self) -> None:
        if self.units <= 0:
            raise GraphError(f"{self.name}: units must be positive")

    @property
    def in_features(self) -> int:
        return self.inputs[0].shape[-1]

    def workload(self) -> OpWorkload:
        rows = self.inputs[0].elems // self.in_features
        gemm = GemmWork(m=rows, k=self.in_features, n=self.units,
                        dtype=self.output.dtype)
        vec = []
        if self.bias:
            vec.append(VectorWork(self.output.elems, passes=1, dtype=self.output.dtype))
        return OpWorkload(
            name=self.name,
            gemms=(gemm,),
            vector=tuple(vec),
            weight_bytes=int(self.in_features * self.units * self.output.dtype.bytes),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


@dataclass(frozen=True)
class BatchMatMul(Op):
    """Batched matmul, e.g. attention scores/context: (..., M, K) @ (..., K, N)."""

    transpose_b: bool = False

    def workload(self) -> OpWorkload:
        a, b = self.inputs
        m, k = a.shape[-2], a.shape[-1]
        n = b.shape[-2] if self.transpose_b else b.shape[-1]
        count = math.prod(a.shape[:-2]) if a.rank > 2 else 1
        gemm = GemmWork(m=m, k=k, n=n, dtype=self.output.dtype, count=count)
        return OpWorkload(
            name=self.name,
            gemms=(gemm,),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


@dataclass(frozen=True)
class Activation(Op):
    """Elementwise nonlinearity on the vector unit."""

    kind: str = "relu"

    def __post_init__(self) -> None:
        if self.kind not in ACTIVATION_PASSES:
            raise GraphError(
                f"{self.name}: unknown activation {self.kind!r}; "
                f"known: {sorted(ACTIVATION_PASSES)}"
            )

    def workload(self) -> OpWorkload:
        return OpWorkload(
            name=self.name,
            vector=(VectorWork(self.output.elems, ACTIVATION_PASSES[self.kind],
                               self.output.dtype),),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


@dataclass(frozen=True)
class BatchNorm(Op):
    """Batch normalization.

    Inference folds to scale+shift (2 passes).  Training computes batch
    statistics (2 reduction passes) before normalizing (4 passes total).
    """

    training: bool = False

    def workload(self) -> OpWorkload:
        passes = 6 if self.training else 2
        channels = self.output.shape[-1]
        return OpWorkload(
            name=self.name,
            vector=(VectorWork(self.output.elems, passes, self.output.dtype),),
            weight_bytes=int(4 * channels * self.output.dtype.bytes),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


@dataclass(frozen=True)
class LayerNorm(Op):
    """Layer normalization over the last axis (~8 vector passes:
    mean, variance, rsqrt, normalize, scale, shift)."""

    def workload(self) -> OpWorkload:
        features = self.output.shape[-1]
        return OpWorkload(
            name=self.name,
            vector=(VectorWork(self.output.elems, 8, self.output.dtype),),
            weight_bytes=int(2 * features * self.output.dtype.bytes),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


@dataclass(frozen=True)
class Softmax(Op):
    """Row softmax (~10 vector passes: max, sub, exp, sum, div)."""

    def workload(self) -> OpWorkload:
        return OpWorkload(
            name=self.name,
            vector=(VectorWork(self.output.elems, 10, self.output.dtype),),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


@dataclass(frozen=True)
class Pool2D(Op):
    """Max/avg pooling: one compare/add pass per kernel tap."""

    kernel: Tuple[int, int] = (2, 2)
    stride: Tuple[int, int] = (2, 2)
    padding: Tuple[int, int] = (0, 0)
    mode: str = "max"

    def __post_init__(self) -> None:
        if self.mode not in ("max", "avg"):
            raise GraphError(f"{self.name}: pool mode must be max/avg")

    def workload(self) -> OpWorkload:
        kh, kw = self.kernel
        return OpWorkload(
            name=self.name,
            vector=(VectorWork(self.output.elems * kh * kw, 1, self.output.dtype),),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


@dataclass(frozen=True)
class GlobalAvgPool(Op):
    """Spatial mean: one reduction pass over the input."""

    def workload(self) -> OpWorkload:
        return OpWorkload(
            name=self.name,
            vector=(VectorWork(self.inputs[0].elems, 1, self.output.dtype),),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


@dataclass(frozen=True)
class Add(Op):
    """Elementwise add (residual connections)."""

    def workload(self) -> OpWorkload:
        return OpWorkload(
            name=self.name,
            vector=(VectorWork(self.output.elems, 1, self.output.dtype),),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


@dataclass(frozen=True)
class Embedding(Op):
    """Table lookup: ids (B, S) -> vectors (B, S, D); gather + copy."""

    vocab_size: int = 0
    dim: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size <= 0 or self.dim <= 0:
            raise GraphError(f"{self.name}: vocab_size and dim must be positive")

    def workload(self) -> OpWorkload:
        return OpWorkload(
            name=self.name,
            vector=(VectorWork(self.output.elems, 1, self.output.dtype),),
            weight_bytes=int(self.vocab_size * self.dim * self.output.dtype.bytes),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


@dataclass(frozen=True)
class Upsample2D(Op):
    """Nearest-neighbour spatial upsampling (FPN top-down path): one
    vector pass over the output."""

    factor: int = 2

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise GraphError(f"{self.name}: factor must be positive")

    def workload(self) -> OpWorkload:
        return OpWorkload(
            name=self.name,
            vector=(VectorWork(self.output.elems, 1, self.output.dtype),),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


# Vector-unit CV operators (Table 2 lists "CV Operators (RPN, etc.)";
# Section 3.3 adds sorting/clustering/stereo for SLAM).  Passes reflect
# the iterative nature of each kernel on the vector datapath.
CV_OP_PASSES: Dict[str, int] = {
    "rpn_proposal": 6,  # score transform + box decode
    "nms": 12,  # sort + pairwise IoU suppression
    "roi_align": 8,  # bilinear sampling per bin
    "anchor_gen": 2,
    "xcorr": 4,  # depthwise cross-correlation (Siamese tracking)
}


@dataclass(frozen=True)
class CvOp(Op):
    """A computer-vision operator executed on the vector unit."""

    kind: str = "rpn_proposal"

    def __post_init__(self) -> None:
        if self.kind not in CV_OP_PASSES:
            raise GraphError(
                f"{self.name}: unknown CV op {self.kind!r}; "
                f"known: {sorted(CV_OP_PASSES)}"
            )

    def workload(self) -> OpWorkload:
        return OpWorkload(
            name=self.name,
            vector=(VectorWork(self.output.elems, CV_OP_PASSES[self.kind],
                               self.output.dtype),),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )


@dataclass(frozen=True)
class Reshape(Op):
    """Layout change (head split/merge).  Real kernels fold this into the
    neighbouring op's addressing; recorded as a 1-pass copy to stay
    conservative about UB traffic."""

    def __post_init__(self) -> None:
        if self.inputs[0].elems != self.output.elems:
            raise GraphError(
                f"{self.name}: reshape element mismatch "
                f"{self.inputs[0].shape} -> {self.output.shape}"
            )

    def workload(self) -> OpWorkload:
        return OpWorkload(
            name=self.name,
            vector=(VectorWork(self.output.elems, 1, self.output.dtype),),
            input_bytes=self.input_bytes,
            output_bytes=self.output.nbytes,
        )
