"""Allocators for compiler- and runtime-managed memory.

* :class:`BumpAllocator` — scoped bump allocation for scratchpad tiles:
  the compiler allocates per layer and releases wholesale when the layer
  (or a double-buffering phase) retires.
* :class:`FreeListAllocator` — general malloc/free with coalescing, used
  by the host runtime for device (GM) buffers whose lifetimes interleave.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import AllocationError

__all__ = ["BumpAllocator", "FreeListAllocator"]


class BumpAllocator:
    """Bump allocation with alignment and LIFO scopes."""

    def __init__(self, capacity: int, alignment: int = 32) -> None:
        if capacity <= 0:
            raise AllocationError("capacity must be positive")
        if alignment <= 0 or alignment & (alignment - 1):
            raise AllocationError(f"alignment must be a power of two, got {alignment}")
        self.capacity = capacity
        self.alignment = alignment
        self._cursor = 0
        self._scopes: List[int] = []

    @property
    def used(self) -> int:
        return self._cursor

    @property
    def free(self) -> int:
        return self.capacity - self._cursor

    def alloc(self, nbytes: int) -> int:
        """Reserve ``nbytes`` and return the aligned start offset."""
        if nbytes <= 0:
            raise AllocationError(f"allocation size must be positive, got {nbytes}")
        start = -(-self._cursor // self.alignment) * self.alignment
        end = start + nbytes
        if end > self.capacity:
            raise AllocationError(
                f"out of scratchpad space: need {nbytes} B at {start}, "
                f"capacity {self.capacity} B"
            )
        self._cursor = end
        return start

    def push_scope(self) -> None:
        """Checkpoint the cursor; a later :meth:`pop_scope` frees everything
        allocated since."""
        self._scopes.append(self._cursor)

    def pop_scope(self) -> None:
        if not self._scopes:
            raise AllocationError("pop_scope without matching push_scope")
        self._cursor = self._scopes.pop()

    def reset(self) -> None:
        self._cursor = 0
        self._scopes.clear()


class FreeListAllocator:
    """First-fit malloc/free with neighbour coalescing.

    Offsets are aligned; double frees and foreign offsets raise.  Used by
    the runtime's device-memory manager, where buffer lifetimes interleave
    arbitrarily (weights persist, activations ping-pong).
    """

    def __init__(self, capacity: int, alignment: int = 64) -> None:
        if capacity <= 0:
            raise AllocationError("capacity must be positive")
        if alignment <= 0 or alignment & (alignment - 1):
            raise AllocationError(f"alignment must be a power of two, got {alignment}")
        self.capacity = capacity
        self.alignment = alignment
        # Sorted list of (offset, size) free extents.
        self._free: List[Tuple[int, int]] = [(0, capacity)]
        self._live: Dict[int, int] = {}  # offset -> size

    @property
    def used(self) -> int:
        return sum(self._live.values())

    @property
    def free_bytes(self) -> int:
        return sum(size for _, size in self._free)

    @property
    def largest_free_extent(self) -> int:
        return max((size for _, size in self._free), default=0)

    def alloc(self, nbytes: int) -> int:
        if nbytes <= 0:
            raise AllocationError(f"allocation size must be positive, got {nbytes}")
        size = -(-nbytes // self.alignment) * self.alignment
        for i, (offset, extent) in enumerate(self._free):
            if extent >= size:
                if extent == size:
                    self._free.pop(i)
                else:
                    self._free[i] = (offset + size, extent - size)
                self._live[offset] = size
                return offset
        raise AllocationError(
            f"out of device memory: need {size} B, largest free extent "
            f"{self.largest_free_extent} B (fragmentation?)"
        )

    def free(self, offset: int) -> None:
        size = self._live.pop(offset, None)
        if size is None:
            raise AllocationError(f"free of unknown/already-freed offset {offset}")
        # Insert sorted and coalesce with neighbours.
        self._free.append((offset, size))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for off, sz in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + sz)
            else:
                merged.append((off, sz))
        self._free = merged
