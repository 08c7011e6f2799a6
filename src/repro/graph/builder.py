"""Fluent builder for graphs, with shape inference.

The model zoo uses this exclusively; see ``repro.models`` for idiomatic
usage.  Every method returns the produced :class:`TensorSpec`, so layers
chain naturally.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..dtypes import DType, FP16, INT32
from ..errors import GraphError
from .graph import Graph
from .ops import (
    Activation,
    Add,
    BatchMatMul,
    BatchNorm,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Embedding,
    GlobalAvgPool,
    Input,
    LayerNorm,
    Pool2D,
    Softmax,
)
from .tensor import TensorSpec

__all__ = ["GraphBuilder"]


def _conv_out(size: int, kernel: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise GraphError(
            f"convolution output collapses: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


class GraphBuilder:
    """Constructs a :class:`Graph` with automatic naming and group tags."""

    def __init__(self, name: str, dtype: DType = FP16) -> None:
        self.graph = Graph(name=name)
        self.dtype = dtype
        self._counter = 0
        self._group = ""

    def _auto(self, kind: str) -> str:
        self._counter += 1
        return f"{kind}_{self._counter}"

    def group(self, label: str) -> "GraphBuilder":
        """Set the layer-group tag applied to subsequently added nodes."""
        self._group = label
        return self

    # -- node constructors ----------------------------------------------------

    def input(self, name: str, shape: Tuple[int, ...],
              dtype: Optional[DType] = None) -> TensorSpec:
        dtype = dtype or self.dtype
        spec = TensorSpec(name, shape, dtype)
        self.graph.add(Input(name=f"input_{name}", inputs=(), output=spec,
                             group=self._group))
        return spec

    def conv2d(self, x: TensorSpec, out_channels: int, kernel, stride=(1, 1),
               padding=(0, 0), bias: bool = True,
               name: Optional[str] = None) -> TensorSpec:
        kernel, stride, padding = _pair(kernel), _pair(stride), _pair(padding)
        b, h, w, _ = _expect_rank(x, 4)
        oh = _conv_out(h, kernel[0], stride[0], padding[0])
        ow = _conv_out(w, kernel[1], stride[1], padding[1])
        name = name or self._auto("conv")
        out = TensorSpec(f"{name}_out", (b, oh, ow, out_channels), x.dtype)
        self.graph.add(Conv2D(
            name=name, inputs=(x,), output=out, group=self._group,
            kernel=kernel, stride=stride, padding=padding,
            out_channels=out_channels, bias=bias,
        ))
        return out

    def depthwise_conv2d(self, x: TensorSpec, kernel, stride=(1, 1),
                         padding=(1, 1), bias: bool = True,
                         name: Optional[str] = None) -> TensorSpec:
        kernel, stride, padding = _pair(kernel), _pair(stride), _pair(padding)
        b, h, w, c = _expect_rank(x, 4)
        oh = _conv_out(h, kernel[0], stride[0], padding[0])
        ow = _conv_out(w, kernel[1], stride[1], padding[1])
        name = name or self._auto("dwconv")
        out = TensorSpec(f"{name}_out", (b, oh, ow, c), x.dtype)
        self.graph.add(DepthwiseConv2D(
            name=name, inputs=(x,), output=out, group=self._group,
            kernel=kernel, stride=stride, padding=padding, bias=bias,
        ))
        return out

    def dense(self, x: TensorSpec, units: int, bias: bool = True,
              name: Optional[str] = None) -> TensorSpec:
        name = name or self._auto("dense")
        out = TensorSpec(f"{name}_out", x.shape[:-1] + (units,), x.dtype)
        self.graph.add(Dense(name=name, inputs=(x,), output=out,
                             group=self._group, units=units, bias=bias))
        return out

    def batch_matmul(self, a: TensorSpec, b: TensorSpec,
                     transpose_b: bool = False,
                     name: Optional[str] = None) -> TensorSpec:
        if a.rank < 2 or b.rank < 2:
            raise GraphError("batch_matmul operands must be at least 2-D")
        k_a = a.shape[-1]
        k_b = b.shape[-1] if transpose_b else b.shape[-2]
        if k_a != k_b:
            raise GraphError(
                f"batch_matmul contraction mismatch: {a.shape} vs {b.shape} "
                f"(transpose_b={transpose_b})"
            )
        n = b.shape[-2] if transpose_b else b.shape[-1]
        name = name or self._auto("bmm")
        out = TensorSpec(f"{name}_out", a.shape[:-1] + (n,), a.dtype)
        self.graph.add(BatchMatMul(name=name, inputs=(a, b), output=out,
                                   group=self._group, transpose_b=transpose_b))
        return out

    def activation(self, x: TensorSpec, kind: str,
                   name: Optional[str] = None) -> TensorSpec:
        name = name or self._auto(kind)
        out = TensorSpec(f"{name}_out", x.shape, x.dtype)
        self.graph.add(Activation(name=name, inputs=(x,), output=out,
                                  group=self._group, kind=kind))
        return out

    def relu(self, x: TensorSpec) -> TensorSpec:
        return self.activation(x, "relu")

    def batch_norm(self, x: TensorSpec, training: bool = False,
                   name: Optional[str] = None) -> TensorSpec:
        name = name or self._auto("bn")
        out = TensorSpec(f"{name}_out", x.shape, x.dtype)
        self.graph.add(BatchNorm(name=name, inputs=(x,), output=out,
                                 group=self._group, training=training))
        return out

    def layer_norm(self, x: TensorSpec, name: Optional[str] = None) -> TensorSpec:
        name = name or self._auto("ln")
        out = TensorSpec(f"{name}_out", x.shape, x.dtype)
        self.graph.add(LayerNorm(name=name, inputs=(x,), output=out,
                                 group=self._group))
        return out

    def softmax(self, x: TensorSpec, name: Optional[str] = None) -> TensorSpec:
        name = name or self._auto("softmax")
        out = TensorSpec(f"{name}_out", x.shape, x.dtype)
        self.graph.add(Softmax(name=name, inputs=(x,), output=out,
                               group=self._group))
        return out

    def pool2d(self, x: TensorSpec, kernel, stride=None, padding=(0, 0),
               mode: str = "max", name: Optional[str] = None) -> TensorSpec:
        kernel = _pair(kernel)
        stride = _pair(stride) if stride is not None else kernel
        padding = _pair(padding)
        b, h, w, c = _expect_rank(x, 4)
        oh = _conv_out(h, kernel[0], stride[0], padding[0])
        ow = _conv_out(w, kernel[1], stride[1], padding[1])
        name = name or self._auto("pool")
        out = TensorSpec(f"{name}_out", (b, oh, ow, c), x.dtype)
        self.graph.add(Pool2D(name=name, inputs=(x,), output=out,
                              group=self._group, kernel=kernel, stride=stride,
                              padding=padding, mode=mode))
        return out

    def global_avg_pool(self, x: TensorSpec,
                        name: Optional[str] = None) -> TensorSpec:
        b, _, _, c = _expect_rank(x, 4)
        name = name or self._auto("gap")
        out = TensorSpec(f"{name}_out", (b, c), x.dtype)
        self.graph.add(GlobalAvgPool(name=name, inputs=(x,), output=out,
                                     group=self._group))
        return out

    def add(self, a: TensorSpec, b: TensorSpec,
            name: Optional[str] = None) -> TensorSpec:
        if a.shape != b.shape:
            raise GraphError(f"add shape mismatch: {a.shape} vs {b.shape}")
        name = name or self._auto("add")
        out = TensorSpec(f"{name}_out", a.shape, a.dtype)
        self.graph.add(Add(name=name, inputs=(a, b), output=out,
                           group=self._group))
        return out

    def embedding(self, ids: TensorSpec, vocab_size: int, dim: int,
                  name: Optional[str] = None) -> TensorSpec:
        name = name or self._auto("embed")
        out = TensorSpec(f"{name}_out", ids.shape + (dim,), self.dtype)
        self.graph.add(Embedding(name=name, inputs=(ids,), output=out,
                                 group=self._group, vocab_size=vocab_size,
                                 dim=dim))
        return out

    def build(self) -> Graph:
        if not self.graph.nodes:
            raise GraphError("graph is empty")
        return self.graph


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    pair = tuple(value)
    if len(pair) != 2:
        raise GraphError(f"expected an int or pair, got {value!r}")
    return pair  # type: ignore[return-value]


def _expect_rank(x: TensorSpec, rank: int) -> Tuple[int, ...]:
    if x.rank != rank:
        raise GraphError(f"tensor {x.name!r} must be rank {rank}, got {x.rank}")
    return x.shape
