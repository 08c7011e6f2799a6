"""ModelRunner: execute a whole graph on a simulated device.

Cube-friendly ops (Conv2D via img2col, Dense, BatchMatMul) run as
compiled, tiled GEMM kernels on the device core — real instructions, real
cycle counts.  Everything else (pooling, normalization, softmax, CV ops)
evaluates through the reference semantics, charged to the device clock at
the vector-unit rate from the op's workload model.  One parameter store
(the ReferenceBackend's) feeds both paths, so the runner's outputs can be
checked against the pure-reference run bit-for-bit-ish (fp16 rounding on
the device path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..compiler.lowering import GemmLayout, lower_gemm
from ..core.costs import CostModel
from ..core.mte import im2col_array
from ..dtypes import FP16
from ..errors import SchedulingError
from ..graph import Graph, ReferenceBackend
from ..graph.ops import BatchMatMul, Conv2D, Dense, Input, Op
from .device import Device

__all__ = ["ModelRunner", "RunReport"]


@dataclass
class RunReport:
    """Outcome of one model execution on a device."""

    outputs: Dict[str, np.ndarray]
    device_cycles: int
    offloaded_nodes: List[str] = field(default_factory=list)
    host_assisted_nodes: List[str] = field(default_factory=list)

    def seconds_at(self, clock_ghz: float) -> float:
        """Wall-clock seconds of the device cycles at ``clock_ghz``."""
        if clock_ghz <= 0:
            raise ValueError(f"clock_ghz must be positive, got {clock_ghz}")
        return self.device_cycles / (clock_ghz * 1e9)


class ModelRunner:
    """Runs graphs end to end on a :class:`~repro.runtime.device.Device`."""

    # BatchMatMul with more identical small GEMMs than this evaluates on
    # the host (per-kernel simulation wall-time guard, not a cycle issue).
    MAX_DEVICE_BMM_COUNT = 32

    def __init__(self, graph: Graph, device: Device, seed: int = 0) -> None:
        self.graph = graph
        self.device = device
        self.backend = ReferenceBackend(graph, seed=seed)
        self._costs = CostModel(device.config)

    # -- public API --------------------------------------------------------------

    def run(self, feeds: Dict[str, np.ndarray]) -> RunReport:
        values: Dict[str, np.ndarray] = {}
        offloaded: List[str] = []
        host: List[str] = []
        start_cycles = self.device.total_cycles
        for op in self.graph:
            if isinstance(op, Input):
                name = op.output.name
                if name not in feeds:
                    raise SchedulingError(f"missing feed {name!r}")
                values[name] = np.asarray(feeds[name])
                continue
            srcs = [values[t.name] for t in op.inputs]
            out, on_device = self._execute(op, srcs)
            values[op.output.name] = out
            (offloaded if on_device else host).append(op.name)
        outputs = {t.name: values[t.name] for t in self.graph.outputs}
        return RunReport(
            outputs=outputs,
            device_cycles=self.device.total_cycles - start_cycles,
            offloaded_nodes=offloaded,
            host_assisted_nodes=host,
        )

    # -- op dispatch ----------------------------------------------------------------

    def _execute(self, op: Op, srcs) -> Tuple[np.ndarray, bool]:
        params = self.backend.params.get(op.name, {})
        if isinstance(op, Dense):
            x = srcs[0]
            flat = x.reshape(-1, x.shape[-1])
            out = self._device_gemm(flat, params["weight"],
                                    params.get("bias") if op.bias else None)
            return out.reshape(*x.shape[:-1], op.units), True
        if isinstance(op, Conv2D):
            x = srcs[0]
            kh, kw = op.kernel
            cols = np.concatenate([
                im2col_array(img.astype(np.float16), op.kernel, op.stride,
                             op.padding)
                for img in x
            ])
            w = params["weight"].reshape(kh * kw * op.in_channels,
                                         op.out_channels)
            out = self._device_gemm(cols, w,
                                    params.get("bias") if op.bias else None)
            return out.reshape(op.output.shape), True
        if isinstance(op, BatchMatMul):
            a, b = srcs
            count = math.prod(a.shape[:-2]) if a.ndim > 2 else 1
            if count <= self.MAX_DEVICE_BMM_COUNT:
                a2 = a.reshape(count, a.shape[-2], a.shape[-1])
                b2 = b.reshape(count, b.shape[-2], b.shape[-1])
                outs = []
                for i in range(count):
                    rhs = b2[i].T if op.transpose_b else b2[i]
                    outs.append(self._device_gemm(a2[i], rhs, None))
                return np.stack(outs).reshape(op.output.shape), True
        # Host-assisted path: reference numerics, device clock charged at
        # the vector-unit rate the workload model defines.
        out = self.backend.eval_op(op, srcs)
        self._charge_vector_time(op)
        return out, False

    def _device_gemm(self, a: np.ndarray, b: np.ndarray,
                     bias: Optional[np.ndarray]) -> np.ndarray:
        a16 = np.ascontiguousarray(a, dtype=np.float16)
        b16 = np.ascontiguousarray(b, dtype=np.float16)
        m, k = a16.shape
        _, n = b16.shape
        buf_a = self.device.malloc((m, k))
        buf_b = self.device.malloc((k, n))
        buf_c = self.device.malloc((m, n))
        buf_bias = self.device.malloc((1, n)) if bias is not None else None
        try:
            layout = GemmLayout(
                buf_a.offset, buf_b.offset, buf_c.offset,
                bias_offset=buf_bias.offset if buf_bias else None,
            )
            program = lower_gemm(m, k, n, self.device.config, layout=layout,
                                 tag="runtime")
            self.device.memcpy_h2d(buf_a, a16)
            self.device.memcpy_h2d(buf_b, b16)
            if buf_bias is not None:
                self.device.memcpy_h2d(
                    buf_bias, np.asarray(bias, np.float16).reshape(1, n))
            self.device.run_program(program)
            return self.device.memcpy_d2h(buf_c).astype(np.float32)
        finally:
            for buf in (buf_a, buf_b, buf_c, buf_bias):
                if buf is not None:
                    self.device.free(buf)

    def _charge_vector_time(self, op: Op) -> None:
        work = op.workload()
        cycles = 0
        for v in work.vector:
            cycles += self._costs.vector_cycles(v.elems, v.dtype.bytes,
                                                passes=v.passes)
        self.device.total_cycles += cycles
