"""Base SoC model: cores + LLC + DRAM + scheduler, end to end.

``run_inference`` / ``run_training`` compile a model for one core, spread
the batch across the SoC's AI cores (block-level data parallelism,
Section 5.2), and bound the result by both compute and the memory system
(LLC capacity model of Section 4.1 feeding the HBM/LPDDR bandwidth).

Absolute throughput additionally applies a *deployment efficiency*
factor covering everything outside the simulator's scope (framework/host
overhead, input pipelines, kernel launch tails).  It is calibrated ONCE —
against the paper's Ascend 910 ResNet-50 number — and then reused for
every other prediction; see EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.graph_engine import CompiledModel, GraphEngine
from ..config.core_configs import CoreConfig
from ..config.soc_configs import SocConfig
from ..errors import SchedulingError
from ..graph import Graph
from ..memory.dram import DramModel
from ..memory.llc import LlcModel
from ..models.training import training_workloads
from .task_scheduler import TaskScheduler

__all__ = ["AscendSoc", "SocRunResult", "DEFAULT_DEPLOYMENT_EFFICIENCY"]

# Calibrated once against Table 7's Ascend 910 ResNet-50 throughput; reused
# unchanged for every other SoC/model prediction in this reproduction.
DEFAULT_DEPLOYMENT_EFFICIENCY = 0.33


@dataclass
class SocRunResult:
    """Performance summary of one model step on an SoC."""

    soc_name: str
    model_name: str
    batch: int
    active_cores: int
    compute_seconds: float
    memory_seconds: float
    dram_traffic_bytes: float
    total_macs: int
    deployment_efficiency: float

    @property
    def step_seconds(self) -> float:
        """Compute and memory overlap; the slower one bounds the step.

        Deployment efficiency dilates the *compute* path only: host and
        framework overheads idle the cores between kernels while DMA
        streams keep draining, so the memory side is unaffected.
        """
        return max(self.compute_seconds / self.deployment_efficiency,
                   self.memory_seconds)

    @property
    def throughput_items_per_s(self) -> float:
        return self.batch / self.step_seconds

    @property
    def latency_ms(self) -> float:
        return self.step_seconds * 1000

    @property
    def bound(self) -> str:
        return "memory" if self.memory_seconds > self.compute_seconds else "compute"


class AscendSoc:
    """An SoC instance with per-core-type graph engines and a memory model."""

    def __init__(self, config: SocConfig,
                 llc_bytes_override: Optional[int] = None) -> None:
        self.config = config
        self.engines: Dict[str, GraphEngine] = {
            core.name: GraphEngine(core) for core, _ in config.core_groups
        }
        self.llc = LlcModel(
            capacity_bytes=llc_bytes_override or config.llc_bytes,
            total_bw=config.llc_bw_total,
            dram_bw=config.dram_bw,
        )
        self.dram = DramModel(bandwidth=config.dram_bw)

    @property
    def primary_core(self) -> CoreConfig:
        return self.config.core_groups[0][0]

    def engine(self, core_name: Optional[str] = None) -> GraphEngine:
        name = core_name or self.primary_core.name
        try:
            return self.engines[name]
        except KeyError:
            raise SchedulingError(
                f"{self.config.name} has no {name!r} cores; "
                f"available: {sorted(self.engines)}"
            ) from None

    # -- end-to-end model execution ---------------------------------------------

    # How efficiently one task's blocks split across cores (Figure 17
    # block-level parallelism): tile-boundary and rendezvous losses.
    BLOCK_SPLIT_EFFICIENCY = 0.75

    def run_model(self, build_graph, batch: int, training: bool = False,
                  core_name: Optional[str] = None,
                  block_parallel: bool = False,
                  deployment_efficiency: float = DEFAULT_DEPLOYMENT_EFFICIENCY
                  ) -> SocRunResult:
        """Run a model data-parallel across the SoC's cores.

        Args:
            build_graph: callable ``batch -> Graph`` (per-core slice is
                compiled with its actual sub-batch).
            batch: global batch size for the step.
            training: compile forward+backward+optimizer workloads.
            block_parallel: when the batch leaves cores idle, split each
                task into blocks across them (Section 5.2's block level)
                — the latency-oriented mobile/automotive mode.
        """
        if batch <= 0:
            raise SchedulingError("batch must be positive")
        engine = self.engine(core_name)
        core_counts = {c.name: n for c, n in self.config.core_groups}
        available = core_counts[engine.config.name]
        active = min(available, batch)
        block_split = available // active if block_parallel else 1
        per_core_batch = math.ceil(batch / active)
        graph = build_graph(per_core_batch)
        # Weights live once per chip: the optimizer is a per-chip phase
        # (modeled separately below), not replicated per core.
        workloads = (
            training_workloads(graph, include_optimizer=False)
            if training else None
        )
        compiled = engine.compile_graph(graph, workloads=workloads)
        return self._summarize(compiled, batch, active, per_core_batch,
                               deployment_efficiency, training, block_split)

    def _summarize(self, compiled: CompiledModel, batch: int, active: int,
                   per_core_batch: int, deployment_efficiency: float,
                   training: bool, block_split: int = 1) -> SocRunResult:
        waves = math.ceil(batch / (active * per_core_batch))
        # All active cores run the same per-core stream in parallel; the
        # launch overheads come from the scheduler model.
        scheduler = TaskScheduler(core_count=active)
        launch = scheduler.task_launch_overhead * len(compiled.layers)
        speedup = max(1.0, block_split * self.BLOCK_SPLIT_EFFICIENCY)
        per_core_cycles = compiled.total_cycles / speedup + launch
        compute_s = waves * per_core_cycles / compiled.config.frequency_hz

        # Per-layer DRAM accounting: reuse is temporally local, so each
        # layer's re-reference traffic is filtered by the LLC against
        # *that layer's* working set (its weights plus the in/out
        # activations of all active cores).  Weights are compulsory once
        # per step; everything else that the LLC captures never pays HBM
        # bandwidth — the Section 4.1 mechanism.
        weight_bytes = sum(l.workload.weight_bytes for l in compiled.layers)
        dram_traffic = 0.0
        for layer in compiled.layers:
            traffic = (layer.gm_read_bytes + layer.gm_write_bytes) * active * waves
            w = layer.workload.weight_bytes
            acts = (layer.workload.input_bytes + layer.workload.output_bytes) * active
            reref = max(0.0, traffic - w)
            dram_traffic += self.llc.dram_traffic(reref, w + acts, cold_bytes=w)

        if training:
            # Per-chip optimizer phase: fp16 weights + fp32 master + fp32
            # momentum, read and written once per step (~20 B/param),
            # vector-executed split across the active cores.
            param_elems = weight_bytes / 2  # fp16 storage
            opt_traffic = param_elems * 20
            dram_traffic += opt_traffic
            opt_cycles = (
                param_elems * 3 * 4  # 3 passes over fp32 data
                / compiled.config.vector_width_bytes / active
            )
            compute_s += opt_cycles / compiled.config.frequency_hz

        memory_s = self.dram.transfer_time(dram_traffic)

        return SocRunResult(
            soc_name=self.config.name,
            model_name=compiled.name,
            batch=batch,
            active_cores=active,
            compute_seconds=compute_s,
            memory_seconds=memory_s,
            dram_traffic_bytes=dram_traffic,
            total_macs=compiled.total_macs * active * waves,
            deployment_efficiency=deployment_efficiency,
        )
