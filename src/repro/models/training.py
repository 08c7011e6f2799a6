"""Training workload synthesis: backward-pass + optimizer work per layer.

Rather than materializing a backward graph, each forward op's workload is
transformed by the standard backprop algebra:

* a forward GEMM ``C[M,N] = A[M,K] B[K,N]`` spawns two backward GEMMs —
  ``dA = dC B^T`` (M x N x K) and ``dB = A^T dC`` (K x M x N);
* vector ops roughly double their passes backward (recompute + mask /
  chain-rule arithmetic);
* every weight gets an optimizer update (momentum-SGD: ~3 vector passes).

This is exactly the structural reason Figure 5's (training) ratios sit
below Figure 4's (inference): cube work triples while vector work grows
by ~2.5x plus optimizer traffic.
"""

from __future__ import annotations

from typing import List, Tuple

from ..dtypes import FP32
from ..graph import Graph, GemmWork, OpWorkload, VectorWork
from ..graph.ops import Input

__all__ = ["training_workloads", "optimizer_workload", "backward_workload"]

_OPTIMIZER_PASSES = 3  # read grad, update momentum, apply — momentum SGD
_BACKWARD_VECTOR_FACTOR = 2


def backward_workload(forward: OpWorkload) -> OpWorkload:
    """Backward-pass workload derived from one forward workload."""
    bwd_gemms: List[GemmWork] = []
    for g in forward.gemms:
        bwd_gemms.append(GemmWork(m=g.m, k=g.n, n=g.k, dtype=g.dtype,
                                  count=g.count))  # dA = dC @ B^T
        bwd_gemms.append(GemmWork(m=g.k, k=g.m, n=g.n, dtype=g.dtype,
                                  count=g.count))  # dB = A^T @ dC
    bwd_vector: List[VectorWork] = [
        VectorWork(v.elems, v.passes * _BACKWARD_VECTOR_FACTOR, v.dtype)
        for v in forward.vector
    ]
    return OpWorkload(
        name=f"{forward.name}.bwd",
        gemms=tuple(bwd_gemms),
        vector=tuple(bwd_vector),
        weight_bytes=forward.weight_bytes,
        # Backward re-reads activations and writes gradients of like size.
        input_bytes=forward.output_bytes + forward.input_bytes,
        output_bytes=forward.input_bytes,
    )


def optimizer_workload(forward: OpWorkload) -> OpWorkload:
    """Momentum-SGD update over this op's parameters (fp32 master copy)."""
    if forward.weight_bytes == 0:
        return OpWorkload(name=f"{forward.name}.opt")
    param_elems = int(forward.weight_bytes / 2)  # fp16 storage
    return OpWorkload(
        name=f"{forward.name}.opt",
        vector=(VectorWork(param_elems, _OPTIMIZER_PASSES, FP32),),
        input_bytes=forward.weight_bytes * 2,
        output_bytes=forward.weight_bytes * 2,
    )


def training_workloads(graph: Graph,
                       include_optimizer: bool = True
                       ) -> List[Tuple[str, OpWorkload]]:
    """Per layer-group fwd+bwd(+optimizer) workloads, in forward order.

    This is the workload Figure 5 (BERT training) and Figure 9 (BERT
    forward+backward) profile.
    """
    merged: List[Tuple[str, OpWorkload]] = []
    for group, fwd in graph.grouped_workloads():
        parts = [fwd, backward_workload(fwd)]
        if include_optimizer:
            parts.append(optimizer_workload(fwd))
        merged.append((group, OpWorkload.fused(group, parts)))
    return merged
