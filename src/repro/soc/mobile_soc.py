"""Kirin 990 5G NPU subsystem — the mobile SoC (Section 3.2, Figure 13).

Two Ascend-Lite cores and one Ascend-Tiny core in a big-little
arrangement: vision models run on the Lite cores (batch 1, hence the
4x16x16 cube), while always-on wake/gesture models run on the ~300 mW
Tiny core.  DVFS scales the Lite cores with workload intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..config.core_configs import ASCEND_LITE, ASCEND_TINY
from ..config.soc_configs import KIRIN_990_5G, SocConfig
from ..dtypes import INT8
from ..models import build_gesture_net, build_mobilenet_v2
from .dvfs import DvfsGovernor, DvfsPoint
from .soc import DEFAULT_DEPLOYMENT_EFFICIENCY, AscendSoc, SocRunResult

__all__ = ["MobileSoc"]

_LITE_NOMINAL_POWER_W = 0.6  # per Lite core at the nominal DVFS point
_TINY_TYPICAL_POWER_W = 0.3  # Section 3.2: "as low as 300mW"


class MobileSoc(AscendSoc):
    """A Kirin-990-style NPU subsystem with big-little dispatch."""

    def __init__(self, config: SocConfig = KIRIN_990_5G) -> None:
        super().__init__(config)
        self.governor = DvfsGovernor(nominal_power_w=_LITE_NOMINAL_POWER_W)

    # -- big path: vision models on the Lite cores --------------------------------

    def mobilenet_inference(self, batch: int = 1,
                            deployment_efficiency: float = DEFAULT_DEPLOYMENT_EFFICIENCY
                            ) -> SocRunResult:
        """MobileNetV2 fp16 latency — Table 8's 'seconds per image' row.

        Latency-oriented: at batch 1 the two Lite cores split each layer
        into blocks (Section 5.2 block-level parallelism).
        """
        return self.run_model(
            lambda b: build_mobilenet_v2(batch=b), batch=batch,
            core_name=ASCEND_LITE.name, block_parallel=True,
            deployment_efficiency=deployment_efficiency,
        )

    # -- little path: always-on models on the Tiny core ---------------------------

    def wakeup_inference(self,
                         deployment_efficiency: float = DEFAULT_DEPLOYMENT_EFFICIENCY
                         ) -> SocRunResult:
        """Gesture/wake model on the Tiny core (int8)."""
        return self.run_model(
            lambda b: build_gesture_net(batch=b), batch=1,
            core_name=ASCEND_TINY.name,
            deployment_efficiency=deployment_efficiency,
        )

    def dispatch(self, always_on: bool) -> str:
        """Big-little policy: always-on -> Tiny, everything else -> Lite."""
        return ASCEND_TINY.name if always_on else ASCEND_LITE.name

    # -- power / energy ------------------------------------------------------------

    def tiny_power_w(self) -> float:
        return _TINY_TYPICAL_POWER_W

    def peak_tops_int8(self) -> float:
        """The Table 8 headline number (~6.88 TOPS for Kirin 990 5G)."""
        return self.config.peak_ops(INT8) / 1e12

    def tops_per_watt(self) -> float:
        """Energy efficiency in the standard mode (Table 8: 4.6 TOPS/W)."""
        lite_count = self.config.core_groups[0][1]
        power = lite_count * self.governor.power_at(self.governor.nominal)
        power += _TINY_TYPICAL_POWER_W
        return self.peak_tops_int8() / power

    def dvfs_energy_curve(self, cycles: int) -> Tuple[Tuple[str, float, float], ...]:
        """(point, latency_s, energy_J) per DVFS point for a fixed job."""
        rows = []
        for point in self.governor.ladder:
            latency = cycles / point.frequency_hz
            energy = self.governor.energy_per_inference(point, cycles)
            rows.append((point.name, latency, energy))
        return tuple(rows)
