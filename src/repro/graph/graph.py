"""The DAG container for DNN models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import GraphError
from .ops import Input, Op
from .tensor import TensorSpec
from .workload import OpWorkload

__all__ = ["Graph"]


@dataclass
class Graph:
    """An ordered DAG of ops.

    Nodes are stored in a valid topological order (the builder appends
    producers before consumers, and :meth:`add` enforces it), so iteration
    order is execution order.
    """

    name: str = "graph"
    nodes: List[Op] = field(default_factory=list)
    _tensors: Dict[str, TensorSpec] = field(default_factory=dict)
    _producers: Dict[str, str] = field(default_factory=dict)
    _by_name: Dict[str, Op] = field(default_factory=dict)

    def add(self, op: Op) -> TensorSpec:
        """Append a node; inputs must already be produced in this graph."""
        if op.name in self._by_name:
            raise GraphError(f"duplicate node name {op.name!r}")
        if not isinstance(op, Input):
            for tensor in op.inputs:
                if tensor.name not in self._tensors:
                    raise GraphError(
                        f"node {op.name!r} consumes unknown tensor {tensor.name!r}"
                    )
        if op.output.name in self._tensors:
            raise GraphError(f"tensor {op.output.name!r} produced twice")
        self.nodes.append(op)
        self._by_name[op.name] = op
        self._tensors[op.output.name] = op.output
        self._producers[op.output.name] = op.name
        return op.output

    # -- queries --------------------------------------------------------------

    def __iter__(self) -> Iterator[Op]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, name: str) -> Op:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(
                f"no node named {name!r} in graph {self.name!r}") from None

    def tensor(self, name: str) -> TensorSpec:
        try:
            return self._tensors[name]
        except KeyError:
            raise GraphError(f"no tensor named {name!r}") from None

    @property
    def inputs(self) -> List[Op]:
        return [op for op in self.nodes if isinstance(op, Input)]

    @property
    def outputs(self) -> List[TensorSpec]:
        """Tensors nothing consumes — the graph's results."""
        consumed = {t.name for op in self.nodes for t in op.inputs}
        return [op.output for op in self.nodes if op.output.name not in consumed]

    # -- workload analysis ----------------------------------------------------

    def workloads(self) -> List[Tuple[Op, OpWorkload]]:
        """Per-node workload descriptors, in execution order."""
        return [(op, op.workload()) for op in self.nodes]

    def grouped_workloads(self) -> List[Tuple[str, OpWorkload]]:
        """Workloads merged by layer group, preserving first-seen order.

        This is the granularity at which the paper's Figures 4-8 plot:
        one point per network *layer*, each layer covering its matmul and
        the surrounding vector ops.
        """
        groups: Dict[str, List[OpWorkload]] = {}
        for op in self.nodes:
            if not isinstance(op, Input):
                groups.setdefault(op.group or op.name, []).append(op.workload())
        return [(group, OpWorkload.fused(group, works))
                for group, works in groups.items()]

    def total_macs(self) -> int:
        return sum(w.macs for _, w in self.workloads())

    def total_weight_bytes(self) -> int:
        return sum(w.weight_bytes for _, w in self.workloads())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph({self.name!r}, {len(self.nodes)} nodes)"

