"""Per-layer roofline / bottleneck attribution against Table 5 limits.

For each layer the question is: *which resource bounds it?*  The
candidates are the paper's stated limits — cube FLOPS (Table 5 tile
shapes), the L1->L0 feed buses (MTE1), the inbound LLC/fabric bandwidth
(MTE2, Table 5 "BW/core"), the outbound path (MTE3) and the vector
unit.  Attribution is busy-cycle based: the engine already serializes
each pipe, so the pipe with the most busy cycles *is* the layer's
binding resource, and comparing its occupancy against the layer
makespan says how tight the bound is.  The classic roofline numbers
(arithmetic intensity, achieved vs peak FLOPS per cycle) come along so
layers can be placed on the usual log-log plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import math

from ..config.core_configs import CoreConfig
from ..graph.workload import OpWorkload
from ..isa.pipes import Pipe
from .counters import PerfCounters

__all__ = ["LayerRoofline", "layer_rooflines", "model_rooflines",
           "roofline_table"]

# Resource label per candidate pipe.
_RESOURCE = {
    Pipe.M: "cube",
    Pipe.V: "vector",
    Pipe.MTE1: "l1-feed",
    Pipe.MTE2: "llc-in",
    Pipe.MTE3: "writeback",
}


@dataclass(frozen=True)
class LayerRoofline:
    """One layer's position against the machine's rooflines."""

    name: str
    cycles: int
    macs: int
    # Classic roofline coordinates.
    intensity: float            # MACs per GM byte touched
    achieved_macs_per_cycle: float
    peak_macs_per_cycle: int
    # Bottleneck attribution.
    bound: str                  # "cube" | "vector" | "l1-feed" | ...
    bound_occupancy: float      # binding pipe busy / layer cycles
    llc_demand_bytes_per_cycle: float
    llc_limit_bytes_per_cycle: Optional[float]

    @property
    def efficiency(self) -> float:
        """Achieved / peak on the compute axis."""
        if self.peak_macs_per_cycle == 0:
            return 0.0
        return self.achieved_macs_per_cycle / self.peak_macs_per_cycle

    @property
    def llc_bound(self) -> bool:
        """Did demand exceed the Table 5 per-core fabric bandwidth?"""
        if self.llc_limit_bytes_per_cycle is None:
            return False
        return self.llc_demand_bytes_per_cycle > self.llc_limit_bytes_per_cycle


def _attribute(counters: PerfCounters) -> Tuple[str, float]:
    """(binding resource, occupancy of the binding pipe)."""
    cycles = counters.total_cycles
    if cycles == 0:
        return ("idle", 0.0)
    busiest = max(_RESOURCE, key=counters.busy)
    occupancy = counters.busy(busiest) / cycles
    if counters.busy(busiest) == 0:
        return ("idle", 0.0)
    return (_RESOURCE[busiest], occupancy)


def _peak_macs_per_cycle(work: OpWorkload, config: CoreConfig) -> int:
    """The cube's MAC rate at the layer's GEMM dtype: int8 runs twice
    the fp16 rate on an fp16-baseline cube.  Mixed dtypes take the
    highest rate; a layer without GEMMs keeps the cube's native rate."""
    if not work.gemms:
        return config.cube.macs_per_cycle
    return max(config.cube_macs_per_cycle(gemm.dtype) for gemm in work.gemms)


def layer_rooflines(
    layers: Sequence[Tuple[str, OpWorkload, PerfCounters]],
    config: CoreConfig,
) -> List[LayerRoofline]:
    """Rooflines for ``(name, workload, counters)`` triples on one core.

    MACs and the peak they are held against come from the workload
    (graph-side ground truth); everything cycle- and byte-shaped comes
    from the counters.
    """
    llc_limit = config.llc_bytes_per_cycle
    rooflines = []
    for name, work, counters in layers:
        macs = work.macs
        cycles = counters.total_cycles
        gm_bytes = counters.gm_read_bytes + counters.gm_write_bytes
        bound, occupancy = _attribute(counters)
        demand = gm_bytes / cycles if cycles else 0.0
        rooflines.append(LayerRoofline(
            name=name,
            cycles=cycles,
            macs=macs,
            intensity=(macs / gm_bytes) if gm_bytes else math.inf,
            achieved_macs_per_cycle=(macs / cycles) if cycles else 0.0,
            peak_macs_per_cycle=_peak_macs_per_cycle(work, config),
            bound=bound,
            bound_occupancy=occupancy,
            llc_demand_bytes_per_cycle=demand,
            llc_limit_bytes_per_cycle=llc_limit,
        ))
    return rooflines


def model_rooflines(compiled) -> List[LayerRoofline]:
    """Rooflines for a :class:`~repro.compiler.graph_engine.CompiledModel`."""
    return layer_rooflines(
        [(layer.name, layer.workload, PerfCounters.from_layer(layer))
         for layer in compiled.layers],
        compiled.config,
    )


def roofline_table(rooflines: Sequence[LayerRoofline]) -> str:
    """ASCII report: one row per layer plus a bound-resource tally."""
    from ..analysis.reporting import ascii_table

    rows = []
    for r in rooflines:
        intensity = ("inf" if math.isinf(r.intensity)
                     else f"{r.intensity:.1f}")
        rows.append((
            r.name, f"{r.cycles:,}", intensity,
            f"{r.achieved_macs_per_cycle:,.0f}/{r.peak_macs_per_cycle:,}",
            f"{r.efficiency:6.1%}", r.bound, f"{r.bound_occupancy:6.1%}",
        ))
    table = ascii_table(
        ("layer", "cycles", "MACs/byte", "MACs/cyc (ach/peak)",
         "eff", "bound by", "occupancy"),
        rows,
    )
    tally: dict = {}
    for r in rooflines:
        tally[r.bound] = tally.get(r.bound, 0) + 1
    summary = ", ".join(f"{bound}: {count}"
                        for bound, count in sorted(tally.items()))
    return f"{table}\nbinding resource tally — {summary}"
