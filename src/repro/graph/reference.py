"""Reference backend: numpy execution of whole model graphs.

Every op of the IR has exact reference semantics here, so the model zoo
*runs*, not just profiles.  The backend owns randomly-initialized (or
user-provided) parameters per node and evaluates the graph in topological
order.  Tests use it two ways:

* end-to-end sanity of the zoo models (shapes, finiteness, softmax sums);
* as the golden model for the accelerated kernels — a Conv2D node's
  reference output must match :func:`repro.compiler.op_library.conv2d_op`
  running on the simulated core.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

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
    Op,
    Pool2D,
    Reshape,
    Softmax,
    Upsample2D,
)

__all__ = ["ReferenceBackend"]


def _im2col_batch(x: np.ndarray, kernel, stride, padding) -> np.ndarray:
    """(B, H, W, C) -> (B, OH*OW, KH*KW*C), matching the MTE img2col."""
    from ..core.mte import im2col_array

    return np.stack([im2col_array(img, kernel, stride, padding) for img in x])


def _activation(x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "relu6":
        return np.clip(x, 0.0, 6.0)
    if kind == "gelu":
        return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi)
                                        * (x + 0.044715 * x ** 3)))
    if kind == "tanh":
        return np.tanh(x)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-x))
    if kind == "swish":
        return x / (1.0 + np.exp(-x))
    raise GraphError(f"no reference semantics for activation {kind!r}")


def _pool(x: np.ndarray, kernel, stride, padding, mode: str) -> np.ndarray:
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    fill = -np.inf if mode == "max" else 0.0
    padded = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)),
                    constant_values=fill)
    b, h, w, c = padded.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    out = np.empty((b, oh, ow, c), dtype=np.float32)
    for i in range(oh):
        for j in range(ow):
            window = padded[:, i * sh:i * sh + kh, j * sw:j * sw + kw, :]
            if mode == "max":
                out[:, i, j, :] = window.max(axis=(1, 2))
            else:
                out[:, i, j, :] = window.mean(axis=(1, 2))
    return out


class ReferenceBackend:
    """Executes a graph with numpy semantics and owned parameters."""

    def __init__(self, graph: Graph, seed: int = 0,
                 params: Optional[Dict[str, Dict[str, np.ndarray]]] = None
                 ) -> None:
        self.graph = graph
        self.params: Dict[str, Dict[str, np.ndarray]] = params or {}
        self._rng = np.random.default_rng(seed)
        for op in graph:
            if op.name not in self.params:
                made = self._init_params(op)
                if made:
                    self.params[op.name] = made

    # -- parameter initialization ------------------------------------------------

    def _init_params(self, op: Op) -> Dict[str, np.ndarray]:
        rng = self._rng

        def glorot(*shape):
            fan = sum(shape[-2:]) if len(shape) >= 2 else shape[0]
            return rng.standard_normal(shape).astype(np.float32) \
                * math.sqrt(2.0 / fan)

        if isinstance(op, Conv2D):
            kh, kw = op.kernel
            made = {"weight": glorot(kh, kw, op.in_channels, op.out_channels)}
            if op.bias:
                made["bias"] = np.zeros(op.out_channels, np.float32)
            return made
        if isinstance(op, DepthwiseConv2D):
            kh, kw = op.kernel
            made = {"weight": glorot(kh, kw, op.channels)}
            if op.bias:
                made["bias"] = np.zeros(op.channels, np.float32)
            return made
        if isinstance(op, Dense):
            made = {"weight": glorot(op.in_features, op.units)}
            if op.bias:
                made["bias"] = np.zeros(op.units, np.float32)
            return made
        if isinstance(op, BatchNorm):
            c = op.output.shape[-1]
            return {
                "gamma": np.ones(c, np.float32),
                "beta": np.zeros(c, np.float32),
                "mean": np.zeros(c, np.float32),
                "var": np.ones(c, np.float32),
            }
        if isinstance(op, LayerNorm):
            d = op.output.shape[-1]
            return {"gamma": np.ones(d, np.float32),
                    "beta": np.zeros(d, np.float32)}
        if isinstance(op, Embedding):
            return {"table": 0.02 * self._rng.standard_normal(
                (op.vocab_size, op.dim)).astype(np.float32)}
        return {}

    # -- evaluation ----------------------------------------------------------------

    def run(self, feeds: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Evaluate all nodes; returns every produced tensor by name."""
        values: Dict[str, np.ndarray] = {}
        for op in self.graph:
            if isinstance(op, Input):
                name = op.output.name
                if name not in feeds:
                    raise GraphError(f"missing feed for input {name!r}")
                fed = np.asarray(feeds[name])
                if fed.shape != op.output.shape:
                    raise GraphError(
                        f"feed {name!r} has shape {fed.shape}, expected "
                        f"{op.output.shape}")
                values[name] = fed
                continue
            srcs = [values[t.name] for t in op.inputs]
            values[op.output.name] = self._eval(op, srcs)
        return values

    def outputs(self, feeds: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Evaluate and return only the graph's unconsumed outputs."""
        values = self.run(feeds)
        return {t.name: values[t.name] for t in self.graph.outputs}

    def eval_op(self, op: Op, srcs) -> np.ndarray:
        """Public single-op evaluation (used by the runtime's fallback)."""
        return self._eval(op, srcs)

    def _eval(self, op: Op, srcs) -> np.ndarray:
        p = self.params.get(op.name, {})
        if isinstance(op, Conv2D):
            x = srcs[0].astype(np.float32)
            cols = _im2col_batch(x, op.kernel, op.stride, op.padding)
            kh, kw = op.kernel
            w = p["weight"].reshape(kh * kw * op.in_channels, op.out_channels)
            out = cols @ w
            if op.bias:
                out = out + p["bias"]
            b, oh, ow, c = op.output.shape
            return out.reshape(b, oh, ow, c)
        if isinstance(op, DepthwiseConv2D):
            x = srcs[0].astype(np.float32)
            kh, kw = op.kernel
            sh, sw = op.stride
            ph, pw = op.padding
            padded = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
            b, oh, ow, c = op.output.shape
            out = np.zeros((b, oh, ow, c), np.float32)
            for di in range(kh):
                for dj in range(kw):
                    window = padded[:, di:di + oh * sh:sh,
                                    dj:dj + ow * sw:sw, :]
                    out += window * p["weight"][di, dj]
            if op.bias:
                out += p["bias"]
            return out
        if isinstance(op, Dense):
            x = srcs[0].astype(np.float32)
            out = x @ p["weight"]
            if op.bias:
                out = out + p["bias"]
            return out
        if isinstance(op, BatchMatMul):
            a, b = (s.astype(np.float32) for s in srcs)
            if op.transpose_b:
                b = np.swapaxes(b, -1, -2)
            return a @ b
        if isinstance(op, Activation):
            return _activation(srcs[0].astype(np.float32), op.kind)
        if isinstance(op, BatchNorm):
            x = srcs[0].astype(np.float32)
            if op.training:
                axes = tuple(range(x.ndim - 1))
                mean, var = x.mean(axis=axes), x.var(axis=axes)
            else:
                mean, var = p["mean"], p["var"]
            return p["gamma"] * (x - mean) / np.sqrt(var + 1e-5) + p["beta"]
        if isinstance(op, LayerNorm):
            x = srcs[0].astype(np.float32)
            mean = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            return p["gamma"] * (x - mean) / np.sqrt(var + 1e-5) + p["beta"]
        if isinstance(op, Softmax):
            x = srcs[0].astype(np.float32)
            shifted = x - x.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            return e / e.sum(axis=-1, keepdims=True)
        if isinstance(op, Pool2D):
            return _pool(srcs[0].astype(np.float32), op.kernel, op.stride,
                         op.padding, op.mode)
        if isinstance(op, GlobalAvgPool):
            return srcs[0].astype(np.float32).mean(axis=(1, 2))
        if isinstance(op, Add):
            return srcs[0].astype(np.float32) + srcs[1].astype(np.float32)
        if isinstance(op, Embedding):
            ids = srcs[0].astype(np.int64)
            if ids.min() < 0 or ids.max() >= op.vocab_size:
                raise GraphError(f"{op.name}: embedding ids out of range")
            return p["table"][ids]
        if isinstance(op, Reshape):
            return srcs[0].reshape(op.output.shape)
        if isinstance(op, Upsample2D):
            x = srcs[0]
            return x.repeat(op.factor, axis=1).repeat(op.factor, axis=2)
        raise GraphError(f"no reference semantics for {type(op).__name__}")
