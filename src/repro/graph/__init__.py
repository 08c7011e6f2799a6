"""Graph IR: the "Graph" representation of Section 5.1.

DNN models are DAGs of typed ops over :class:`TensorSpec` values.  Every
op can report its :class:`OpWorkload` — cube GEMMs, vector element-passes
and byte footprints — which drives both the compiler and the paper's
per-layer profiling figures.
"""

from .tensor import TensorSpec
from .workload import GemmWork, VectorWork, OpWorkload
from .ops import (
    Op,
    Input,
    Conv2D,
    DepthwiseConv2D,
    Dense,
    BatchMatMul,
    Activation,
    BatchNorm,
    LayerNorm,
    Softmax,
    Pool2D,
    GlobalAvgPool,
    Add,
    Embedding,
)
from .graph import Graph
from .builder import GraphBuilder
from .reference import ReferenceBackend

__all__ = [
    "TensorSpec",
    "GemmWork",
    "VectorWork",
    "OpWorkload",
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
    "Graph",
    "GraphBuilder",
    "ReferenceBackend",
]
