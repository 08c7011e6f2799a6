"""Device abstraction: one simulated Ascend core plus managed GM."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..config.core_configs import ASCEND, CoreConfig
from ..core.core import AscendCore
from ..dtypes import DType, FP16
from ..errors import MemoryError_
from ..isa.memref import MemSpace, Region
from ..memory.allocator import FreeListAllocator

__all__ = ["Device", "DeviceBuffer"]


@dataclass
class DeviceBuffer:
    """A handle to an allocation in device global memory."""

    device: "Device"
    offset: int
    shape: Tuple[int, ...]
    dtype: DType
    freed: bool = False

    @property
    def region(self) -> Region:
        return Region(MemSpace.GM, self.offset, self.shape, self.dtype)

    def _check_live(self) -> None:
        if self.freed:
            raise MemoryError_("use of freed device buffer")


class Device:
    """A simulated NPU device with managed global memory."""

    def __init__(self, config: CoreConfig = ASCEND,
                 gm_bytes: int = 256 * 1024 * 1024) -> None:
        self.config = config
        self.core = AscendCore(config, gm_bytes=gm_bytes)
        self._allocator = FreeListAllocator(gm_bytes)
        self.total_cycles = 0  # accumulated simulated work

    # -- memory management ---------------------------------------------------------

    def malloc(self, shape: Tuple[int, ...], dtype: DType = FP16
               ) -> DeviceBuffer:
        probe = Region(MemSpace.GM, 0, tuple(shape), dtype)
        offset = self._allocator.alloc(probe.nbytes)
        return DeviceBuffer(self, offset, tuple(shape), dtype)

    def free(self, buffer: DeviceBuffer) -> None:
        buffer._check_live()
        self._allocator.free(buffer.offset)
        buffer.freed = True

    @property
    def bytes_in_use(self) -> int:
        return self._allocator.used

    # -- host <-> device ------------------------------------------------------------

    def memcpy_h2d(self, buffer: DeviceBuffer, host: np.ndarray) -> None:
        buffer._check_live()
        host = np.asarray(host)
        if host.shape != buffer.shape:
            raise MemoryError_(
                f"h2d shape mismatch: host {host.shape} vs device {buffer.shape}"
            )
        self.core.memory.write(buffer.region, host)

    def memcpy_d2h(self, buffer: DeviceBuffer) -> np.ndarray:
        buffer._check_live()
        return self.core.memory.read(buffer.region)

    # -- execution -------------------------------------------------------------------

    def run_program(self, program, functional: bool = True):
        """Execute a program on the device core, accumulating device time."""
        result = self.core.run(program, functional=functional,
                               validate=False)
        self.total_cycles += result.cycles
        return result
