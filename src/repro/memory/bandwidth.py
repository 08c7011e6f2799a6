"""Datapath bandwidth model: the width of each on-core bus.

Table 5 provisions three buses per core (L1->L0A, L1->L0B, UB) plus an
LLC allotment per core; Section 2.5 stresses that the A path is wider than
the B path because feature maps dominate weight traffic.  The cost model
prices MTE instructions from these widths
(:meth:`DatapathModel.width_matrix`).
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

import numpy as np

from ..config.core_configs import CoreConfig
from ..errors import ConfigError
from ..isa.memref import MemSpace

__all__ = ["Route", "DatapathModel"]


class Route(enum.Enum):
    """A provisioned bus inside / at the edge of the core."""

    L1_TO_L0A = "l1->l0a"
    L1_TO_L0B = "l1->l0b"
    UB_PORT = "ub"  # UB reads/writes (vector loads/stores, MTE3 out)
    GM_PORT = "gm"  # BIU traffic, bounded by LLC bandwidth per core


def route_for(src: MemSpace, dst: MemSpace) -> Route:
    """Map a (src, dst) space pair onto the bus that carries it."""
    if src is MemSpace.L1 and dst is MemSpace.L0A:
        return Route.L1_TO_L0A
    if src is MemSpace.L1 and dst is MemSpace.L0B:
        return Route.L1_TO_L0B
    if MemSpace.GM in (src, dst):
        return Route.GM_PORT
    if MemSpace.UB in (src, dst):
        return Route.UB_PORT
    if src is MemSpace.L1 or dst is MemSpace.L1:
        # L1 <-> UB style staging rides the UB port.
        return Route.UB_PORT
    raise ConfigError(f"no bus between {src} and {dst}")


class DatapathModel:
    """Per-core bus widths in bytes/cycle, derived from a CoreConfig."""

    # Fixed per-transfer startup (address setup, bus turnaround).
    TRANSFER_OVERHEAD_CYCLES = 8

    def __init__(self, config: CoreConfig) -> None:
        self.config = config
        gm = config.llc_bytes_per_cycle
        self._bytes_per_cycle: Dict[Route, float] = {
            Route.L1_TO_L0A: config.l1_to_l0a_bytes_per_cycle,
            Route.L1_TO_L0B: config.l1_to_l0b_bytes_per_cycle,
            Route.UB_PORT: config.ub_bytes_per_cycle,
            # Tiny has no LLC (Table 5: N/A); its BIU talks straight to
            # SRAM/DDR — model that as the UB-port width.
            Route.GM_PORT: gm if gm is not None else config.ub_bytes_per_cycle,
        }
        self._width_matrix: Optional[np.ndarray] = None

    def bytes_per_cycle(self, route: Route) -> float:
        return self._bytes_per_cycle[route]

    def width_matrix(self) -> np.ndarray:
        """(n_spaces, n_spaces) bus widths indexed by (src, dst) space ints.

        NaN marks unrouted pairs; the columnar cost model fancy-indexes
        this instead of calling :func:`route_for` per instruction.
        """
        if self._width_matrix is None:
            mat = np.full((len(MemSpace), len(MemSpace)), np.nan)
            for src in MemSpace:
                for dst in MemSpace:
                    try:
                        mat[src, dst] = self._bytes_per_cycle[
                            route_for(src, dst)]
                    except ConfigError:
                        pass
            self._width_matrix = mat
        return self._width_matrix
