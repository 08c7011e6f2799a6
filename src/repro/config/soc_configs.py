"""SoC-level design points (paper Sections 3.1-3.3, Figures 10-14).

* **Ascend 910** (training): 32 Ascend-Max cores + 16 CPU cores on a 4x6
  mesh NoC (1024-bit links @ 2 GHz = 256 GB/s per link), AI LLC with 4 TB/s
  aggregate throughput, 4 HBM stacks totalling 1.2 TB/s, 256 TFLOPS fp16,
  300 W TDP, 7 nm compute die (456 mm2) + 16 nm I/O die (168 mm2).
* **Kirin 990 5G** (mobile): 2 Ascend-Lite + 1 Ascend-Tiny in a big-little
  arrangement, DVFS, ~6.88 TOPS peak int8, 4.6 TOPS/W, ~4 mm2 of NPU area.
* **Ascend 610** (automotive): Ascend cores with int4, DVPP, a safety-island
  CPU on a separate ring NoC, MPAM + QoS; 160 TOPS int8 @ 65 W, 401 mm2.
* **Ascend 310** (edge inference, Table 10): 2 Ascend-Mini cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..dtypes import DType, FP16, INT8
from ..errors import ConfigError
from .core_configs import (
    ASCEND,
    ASCEND_LITE,
    ASCEND_MAX,
    ASCEND_MINI,
    ASCEND_TINY,
    CoreConfig,
)

__all__ = [
    "NocConfig",
    "SocConfig",
    "ASCEND_910",
    "ASCEND_610",
    "ASCEND_310",
    "KIRIN_990_5G",
    "SOC_CONFIGS",
    "soc_config_by_name",
]

_GB = 1e9
_TB = 1e12
_MB = 1024 * 1024


@dataclass(frozen=True)
class NocConfig:
    """An on-chip network configuration (Section 3.1.1)."""

    topology: str  # "mesh" or "ring"
    rows: int
    cols: int
    link_bits: int
    link_frequency_hz: float
    bufferless: bool = True

    @property
    def link_bandwidth(self) -> float:
        """Per-link bandwidth in bytes/s (1024 bit @ 2 GHz -> 256 GB/s)."""
        return self.link_bits / 8 * self.link_frequency_hz

    @property
    def node_count(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class SocConfig:
    """A system-on-chip integrating Ascend cores with memory and fabric."""

    name: str
    # (core config, count) pairs; mobile SoCs mix Lite and Tiny.
    core_groups: Tuple[Tuple[CoreConfig, int], ...]
    noc: NocConfig
    llc_bytes: int
    llc_bw_total: float  # aggregate LLC throughput, bytes/s
    dram_bw: float  # HBM/LPDDR bandwidth, bytes/s
    dram_bytes: int
    tdp_w: float
    process_nm: float
    die_area_mm2: float
    cpu_cores: int = 0
    has_dvpp: bool = False
    has_mpam: bool = False
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.core_groups:
            raise ConfigError(f"{self.name}: SoC needs at least one core group")
        for _, count in self.core_groups:
            if count <= 0:
                raise ConfigError(f"{self.name}: core count must be positive")

    @property
    def ai_core_count(self) -> int:
        return sum(count for _, count in self.core_groups)

    def peak_ops(self, dtype: DType) -> float:
        """Aggregate peak FLOPS/OPS over every AI core that supports ``dtype``."""
        total = 0.0
        for core, count in self.core_groups:
            if core.supports_dtype(dtype):
                total += count * core.peak_ops(dtype)
        return total


ASCEND_910 = SocConfig(
    name="ascend-910",
    core_groups=((ASCEND_MAX, 32),),
    noc=NocConfig("mesh", rows=6, cols=4, link_bits=1024, link_frequency_hz=2e9),
    llc_bytes=96 * _MB,  # Section 4.1 baseline capacity
    llc_bw_total=4 * _TB,  # Section 3.1.2: 4 TB/s to L2
    dram_bw=1.2 * _TB,  # 4 HBM stacks
    dram_bytes=32 * 1024 * _MB,
    tdp_w=300.0,
    process_nm=7,
    die_area_mm2=456.0 + 168.0,
    cpu_cores=16,
    has_dvpp=True,
    notes="DNN training SoC (Figure 10); 256 TFLOPS fp16 / 512 TOPS int8.",
)

ASCEND_610 = SocConfig(
    name="ascend-610",
    core_groups=((ASCEND, 10),),
    noc=NocConfig("mesh", rows=4, cols=4, link_bits=512, link_frequency_hz=2e9),
    llc_bytes=32 * _MB,
    llc_bw_total=10 * 111 * _GB,
    dram_bw=102 * _GB,  # LPDDR5-class
    dram_bytes=16 * 1024 * _MB,
    tdp_w=65.0,
    process_nm=7,
    die_area_mm2=401.0,
    cpu_cores=8,
    has_dvpp=True,
    has_mpam=True,
    notes="Autonomous-driving SoC (Figure 14); ~160 TOPS int8, ASIL-B core.",
)

ASCEND_310 = SocConfig(
    name="ascend-310",
    core_groups=((ASCEND_MINI, 2),),
    noc=NocConfig("ring", rows=1, cols=6, link_bits=512, link_frequency_hz=1e9),
    llc_bytes=8 * _MB,
    llc_bw_total=2 * 96 * _GB,
    dram_bw=51.2 * _GB,
    dram_bytes=8 * 1024 * _MB,
    tdp_w=8.0,
    process_nm=12,
    die_area_mm2=100.0,
    cpu_cores=8,
    has_dvpp=True,
    notes="Edge-inference SoC (Table 10); 16 TOPS int8 / 8 TFLOPS fp16 class.",
)

KIRIN_990_5G = SocConfig(
    name="kirin-990-5g",
    core_groups=((ASCEND_LITE, 2), (ASCEND_TINY, 1)),
    noc=NocConfig("ring", rows=1, cols=8, link_bits=256, link_frequency_hz=1.5e9),
    llc_bytes=4 * _MB,
    llc_bw_total=2 * 38.4 * _GB,
    dram_bw=34.1 * _GB,  # LPDDR4X-2133 x4
    dram_bytes=8 * 1024 * _MB,
    tdp_w=1.5,  # NPU subsystem budget, not the phone SoC TDP
    process_nm=7,
    die_area_mm2=4.0,  # NPU area (Table 8)
    cpu_cores=8,
    notes="Mobile SoC (Figure 13); big-little NPU, 6.88 TOPS, 4.6 TOPS/W.",
)

SOC_CONFIGS: Dict[str, SocConfig] = {
    soc.name: soc for soc in (ASCEND_910, ASCEND_610, ASCEND_310, KIRIN_990_5G)
}


def soc_config_by_name(name: str) -> SocConfig:
    """Look up an SoC design point by name (e.g. ``"ascend-910"``)."""
    try:
        return SOC_CONFIGS[name]
    except KeyError:
        raise ConfigError(
            f"unknown SoC config {name!r}; known: {sorted(SOC_CONFIGS)}"
        ) from None
