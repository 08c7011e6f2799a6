"""Per-core memory space set: the five scratchpads plus global memory."""

from __future__ import annotations

from typing import Dict

from ..config.core_configs import CoreConfig
from ..isa.memref import MemSpace, Region
from .buffer import Scratchpad

__all__ = ["CoreMemory"]

_DEFAULT_GM_BYTES = 64 * 1024 * 1024


class CoreMemory:
    """All memory spaces visible to one core's instructions.

    GM here is the core's window into LLC/HBM; its size is a functional-
    simulation convenience (how much test data fits), not an architectural
    parameter.
    """

    def __init__(self, config: CoreConfig, gm_bytes: int = _DEFAULT_GM_BYTES) -> None:
        self.config = config
        self.spaces: Dict[MemSpace, Scratchpad] = {
            MemSpace.L0A: Scratchpad("L0A", config.l0a_bytes),
            MemSpace.L0B: Scratchpad("L0B", config.l0b_bytes),
            MemSpace.L0C: Scratchpad("L0C", config.l0c_bytes),
            MemSpace.L1: Scratchpad("L1", config.l1_bytes),
            MemSpace.UB: Scratchpad("UB", config.ub_bytes),
            MemSpace.GM: Scratchpad("GM", gm_bytes),
        }

    def __getitem__(self, space: MemSpace) -> Scratchpad:
        return self.spaces[space]

    def read(self, region: Region):
        return self.spaces[region.space].read(region)

    def write(self, region: Region, values) -> None:
        self.spaces[region.space].write(region, values)
