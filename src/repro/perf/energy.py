"""Energy/power model (Tables 3 and 8, Section 2.1's 1/16 argument).

The fp16 anchors come straight from Table 3: the cube sustains
2.56 TFLOPS/W and the vector unit 0.56 TFLOPS/W at 7 nm / 1 GHz — the
gap is the 16x operand-reuse energy saving the 3D cube buys.  Memory
access energy uses the per-byte constants of the tech model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..config.core_configs import CoreConfig
from ..config.tech import TechModel, tech_by_node
from ..graph.workload import OpWorkload

__all__ = ["EnergyModel", "UNIT_POWER_TABLE"]

# Table 3 rows, reproduced by the model below (name -> (W, TFLOPS/W)).
UNIT_POWER_TABLE: Dict[str, Tuple[float, float]] = {
    "vector": (0.46, 0.56),
    "cube": (3.13, 2.56),
}


@dataclass
class EnergyModel:
    """Energy accounting for workloads on a core design point."""

    config: CoreConfig
    node_nm: float = 7
    # int8 MACs cost roughly 1/4 the energy of fp16 MACs.
    int8_energy_scale: float = 0.25
    # Static/leakage + clock-tree power as a fraction of peak dynamic.
    static_fraction: float = 0.10

    def __post_init__(self) -> None:
        self.tech: TechModel = tech_by_node(self.node_nm)

    # -- unit-level (Table 3) ----------------------------------------------------

    def cube_power_w(self) -> float:
        """Cube power at full throughput (3.13 W for the 8 TFLOPS cube)."""
        flops = self.config.cube.flops_per_cycle * self.config.frequency_hz
        return flops * self.tech.cube_pj_per_flop * 1e-12

    def vector_power_w(self) -> float:
        flops = 2 * self.config.vector_lanes_fp16 * self.config.frequency_hz
        return flops * self.tech.vector_pj_per_flop * 1e-12

    def cube_tflops_per_w(self) -> float:
        flops = self.config.cube.flops_per_cycle * self.config.frequency_hz
        return flops / 1e12 / self.cube_power_w()

    def vector_tflops_per_w(self) -> float:
        flops = 2 * self.config.vector_lanes_fp16 * self.config.frequency_hz
        return flops / 1e12 / self.vector_power_w()

    # -- workload energy ------------------------------------------------------------

    def workload_energy_j(self, workloads: Sequence[OpWorkload],
                          int8: bool = False,
                          dram_traffic_bytes: float = 0.0) -> float:
        """Dynamic energy for a set of layer workloads."""
        mac_scale = self.int8_energy_scale if int8 else 1.0
        cube_j = sum(
            2 * w.macs * self.tech.cube_pj_per_flop * mac_scale * 1e-12
            for w in workloads
        )
        vec_j = sum(
            w.vector_elem_passes * self.tech.vector_pj_per_flop * 1e-12
            for w in workloads
        )
        sram_j = sum(
            (w.input_bytes + w.output_bytes + w.weight_bytes)
            * self.tech.sram_pj_per_byte * 1e-12
            for w in workloads
        )
        dram_j = dram_traffic_bytes * self.tech.dram_pj_per_byte * 1e-12
        return cube_j + vec_j + sram_j + dram_j

    def tops_per_watt_int8(self, utilization: float = 0.85) -> float:
        """Peak-mode int8 efficiency — the Table 8 metric."""
        from ..dtypes import INT8

        if not self.config.supports_dtype(INT8):
            return 0.0
        ops = self.config.peak_ops(INT8) * utilization
        macs_per_s = ops / 2
        mac_w = (2 * macs_per_s * self.tech.cube_pj_per_flop
                 * self.int8_energy_scale * 1e-12)
        vec_w = 0.3 * self.vector_power_w()
        sram_w = (macs_per_s / 16 * 2  # bytes/s after 16x cube reuse
                  * self.tech.sram_pj_per_byte * 1e-12)
        static = self.static_fraction * (self.cube_power_w()
                                         * self.int8_energy_scale)
        total_w = mac_w + vec_w + sram_w + static
        return ops / 1e12 / total_w
