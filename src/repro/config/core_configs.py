"""Ascend core design points (paper Table 5, Sections 2.6, 3.2).

Each :class:`CoreConfig` captures one row of Table 5 plus the cube tile
shape stated in the text:

* Ascend-Max / Ascend / Ascend-Mini: 16x16x16 cube (8192 fp16 FLOPS/cycle),
  256 B vector, 1 GHz.
* Ascend-Lite: 4x16x16 cube (2048 fp16 FLOPS/cycle, Section 3.2's batch-1
  optimization of the m dimension), 128 B vector, 0.75 GHz.
* Ascend-Tiny: 4x32x4 int8-only cube (1024 int8 OPS/cycle), 32 B vector,
  0.75 GHz, ~300 mW.

Buffer capacities are not given in the paper; L1 = 1 MB, L0A/L0B = 64 KB,
L0C = 256 KB, UB = 256 KB follow public DaVinci documentation for the big
cores and are scaled down proportionally for Lite/Tiny.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..dtypes import DType, FP16, FP32, INT4, INT8
from ..errors import ConfigError

__all__ = [
    "CubeShape",
    "CoreConfig",
    "ASCEND_MAX",
    "ASCEND",
    "ASCEND_MINI",
    "ASCEND_LITE",
    "ASCEND_TINY",
    "CORE_CONFIGS",
    "core_config_by_name",
]

_GB = 1e9
_TB = 1e12


@dataclass(frozen=True)
class CubeShape:
    """The m x k x n tile the cube unit consumes per cycle.

    A GEMM of C[M, N] += A[M, K] @ B[K, N] is processed in tiles of
    ``m x k`` (A), ``k x n`` (B) producing ``m x n`` partial sums, one tile
    per cycle when fully fed (Section 2.1).
    """

    m: int
    k: int
    n: int

    @property
    def macs_per_cycle(self) -> int:
        return self.m * self.k * self.n

    @property
    def flops_per_cycle(self) -> int:
        """FLOPS (or integer OPS) per cycle; one MAC counts as two ops."""
        return 2 * self.macs_per_cycle

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.m}x{self.k}x{self.n}"


@dataclass(frozen=True)
class CoreConfig:
    """One Ascend core design point.

    Bandwidths are in bytes/second at the core's rated frequency; use the
    ``*_bytes_per_cycle`` helpers for cycle-domain numbers, which is what
    the timing engine consumes.
    """

    name: str
    frequency_hz: float
    cube: CubeShape
    cube_dtypes: Tuple[DType, ...]
    vector_width_bytes: int
    # Table 5 bus bandwidths (bytes/s): L1->L0A, L1->L0B, UB port.
    l1_to_l0a_bw: float
    l1_to_l0b_bw: float
    ub_bw: float
    # LLC (or SoC fabric) bandwidth available to this core, bytes/s.
    llc_bw_per_core: Optional[float]
    # Scratchpad capacities in bytes.
    l1_bytes: int
    l0a_bytes: int
    l0b_bytes: int
    l0c_bytes: int
    ub_bytes: int
    # Duplex UB<->vector path (training parts, Section 3.1).
    duplex_ub_vector: bool = False
    supports_training: bool = False
    # Vector elementwise ops issued per cycle is width/bytes-per-elem; some
    # transcendental ops cost more passes (see core.costs).
    notes: str = ""

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigError(f"{self.name}: frequency must be positive")
        if self.vector_width_bytes <= 0:
            raise ConfigError(f"{self.name}: vector width must be positive")
        for attr in ("l1_bytes", "l0a_bytes", "l0b_bytes", "l0c_bytes", "ub_bytes"):
            if getattr(self, attr) <= 0:
                raise ConfigError(f"{self.name}: {attr} must be positive")
        if not self.cube_dtypes:
            raise ConfigError(f"{self.name}: at least one cube dtype required")

    # -- cycle-domain helpers -------------------------------------------------

    def bytes_per_cycle(self, bw_bytes_per_s: float) -> float:
        return bw_bytes_per_s / self.frequency_hz

    @property
    def l1_to_l0a_bytes_per_cycle(self) -> float:
        return self.bytes_per_cycle(self.l1_to_l0a_bw)

    @property
    def l1_to_l0b_bytes_per_cycle(self) -> float:
        return self.bytes_per_cycle(self.l1_to_l0b_bw)

    @property
    def ub_bytes_per_cycle(self) -> float:
        return self.bytes_per_cycle(self.ub_bw)

    @property
    def llc_bytes_per_cycle(self) -> Optional[float]:
        if self.llc_bw_per_core is None:
            return None
        return self.bytes_per_cycle(self.llc_bw_per_core)

    # -- peak throughput ------------------------------------------------------

    def supports_dtype(self, dtype: DType) -> bool:
        return dtype in self.cube_dtypes

    def cube_macs_per_cycle(self, dtype: DType) -> int:
        """MACs per cycle for the given source dtype.

        Relative to an fp16 baseline cube: int8 doubles and int4
        quadruples the MAC rate (Section 2.1 'can extend to 16x32x16 with
        int8'), while fp32 — the Section 7.2 HPC extension offered by the
        next-gen design point — halves it.  Ascend-Tiny is natively int8.
        """
        if not self.supports_dtype(dtype):
            raise ConfigError(f"{self.name} cube does not support {dtype}")
        base = self.cube.macs_per_cycle
        if self.cube_dtypes[0] is FP16:
            if dtype.name == "int8":
                return base * 2
            if dtype.name == "int4":
                return base * 4
            if dtype.name == "fp32":
                return base // 2
        return base

    def peak_ops(self, dtype: DType) -> float:
        """Peak throughput in FLOPS (float) or OPS (integer) at rated clock."""
        return 2 * self.cube_macs_per_cycle(dtype) * self.frequency_hz

    @property
    def vector_lanes_fp16(self) -> int:
        """Number of fp16 elements the vector unit processes per cycle."""
        return max(1, self.vector_width_bytes // 2)


_BIG_CORE_COMMON: Dict[str, object] = dict(
    frequency_hz=1.0e9,
    cube=CubeShape(16, 16, 16),
    cube_dtypes=(FP16, INT8),
    vector_width_bytes=256,
    l1_to_l0a_bw=4 * _TB,
    l1_to_l0b_bw=2 * _TB,
    ub_bw=2 * _TB,
    l1_bytes=1024 * 1024,
    l0a_bytes=64 * 1024,
    l0b_bytes=64 * 1024,
    l0c_bytes=256 * 1024,
    ub_bytes=256 * 1024,
)

ASCEND_MAX = CoreConfig(
    name="ascend-max",
    llc_bw_per_core=94 * _GB,  # Ascend 910 row of Table 5
    duplex_ub_vector=True,
    supports_training=True,
    notes="Training + inference core used in Ascend 910 (32 per chip).",
    **_BIG_CORE_COMMON,
)

# The mid-range automotive/edge core: identical datapath, different SoC
# fabric bandwidth and int4 support (Section 3.3).
ASCEND = CoreConfig(
    name="ascend",
    frequency_hz=1.0e9,
    cube=CubeShape(16, 16, 16),
    cube_dtypes=(FP16, INT8, INT4),
    vector_width_bytes=256,
    l1_to_l0a_bw=4 * _TB,
    l1_to_l0b_bw=2 * _TB,
    ub_bw=2 * _TB,
    llc_bw_per_core=111 * _GB,  # Ascend 610 row
    l1_bytes=1024 * 1024,
    l0a_bytes=64 * 1024,
    l0b_bytes=64 * 1024,
    l0c_bytes=256 * 1024,
    ub_bytes=256 * 1024,
    notes="Autonomous-driving / cloud-inference core (Ascend 610/310); int4 capable.",
)

ASCEND_MINI = CoreConfig(
    name="ascend-mini",
    llc_bw_per_core=96 * _GB,  # Ascend 310 row
    notes="Drones / robots / embedded AI core (Ascend 310).",
    **_BIG_CORE_COMMON,
)

ASCEND_LITE = CoreConfig(
    name="ascend-lite",
    frequency_hz=0.75e9,
    cube=CubeShape(4, 16, 16),  # Section 3.2: m shrunk for batch-1 utilization
    cube_dtypes=(FP16, INT8),
    vector_width_bytes=128,
    l1_to_l0a_bw=768 * _GB,
    l1_to_l0b_bw=768 * _GB,
    ub_bw=768 * _GB,
    llc_bw_per_core=38.4 * _GB,
    l1_bytes=512 * 1024,
    l0a_bytes=32 * 1024,
    l0b_bytes=32 * 1024,
    l0c_bytes=128 * 1024,
    ub_bytes=128 * 1024,
    notes="Mobile big core (Kirin 990 5G has two).",
)

ASCEND_TINY = CoreConfig(
    name="ascend-tiny",
    frequency_hz=0.75e9,
    cube=CubeShape(4, 32, 4),  # Section 3.2; int8 only, fp16 forbidden
    cube_dtypes=(INT8,),
    vector_width_bytes=32,
    l1_to_l0a_bw=384 * _GB,
    l1_to_l0b_bw=384 * _GB,
    ub_bw=192 * _GB,
    llc_bw_per_core=None,  # Table 5: N/A
    l1_bytes=128 * 1024,
    l0a_bytes=16 * 1024,
    l0b_bytes=16 * 1024,
    l0c_bytes=32 * 1024,
    ub_bytes=32 * 1024,
    notes="Always-on wake-up core (~300 mW typical), mobile little core.",
)

# The Section 7.2 "next generation" training core: fp32 in the cube for
# HPC corner cases, wider buses, and bigger buffers feeding the 3D-SRAM
# LLC of Section 4.1.  Not a paper table row — a modeled extension.
ASCEND_NEXT = CoreConfig(
    name="ascend-next",
    frequency_hz=1.2e9,
    cube=CubeShape(16, 16, 16),
    cube_dtypes=(FP16, INT8, INT4, FP32),
    vector_width_bytes=256,
    l1_to_l0a_bw=6 * _TB,
    l1_to_l0b_bw=3 * _TB,
    ub_bw=3 * _TB,
    llc_bw_per_core=180 * _GB,
    l1_bytes=2 * 1024 * 1024,
    l0a_bytes=64 * 1024,
    l0b_bytes=64 * 1024,
    l0c_bytes=256 * 1024,
    ub_bytes=256 * 1024,
    duplex_ub_vector=True,
    supports_training=True,
    notes="Section 7.2 future-work design point (fp32 cube, 3D-SRAM era).",
)

CORE_CONFIGS: Dict[str, CoreConfig] = {
    cfg.name: cfg
    for cfg in (ASCEND_MAX, ASCEND, ASCEND_MINI, ASCEND_LITE, ASCEND_TINY,
                ASCEND_NEXT)
}


def core_config_by_name(name: str) -> CoreConfig:
    """Look up a core design point by name (e.g. ``"ascend-lite"``)."""
    try:
        return CORE_CONFIGS[name]
    except KeyError:
        raise ConfigError(
            f"unknown core config {name!r}; known: {sorted(CORE_CONFIGS)}"
        ) from None
