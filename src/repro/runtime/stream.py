"""Streams and events: the Section 5.2 stream/task level as a host API.

A stream is an in-order queue of tasks on a device; independent streams
model independent apps.  Simulated time: each stream keeps its own
cursor; enqueued work starts at the later of the stream cursor and the
task's dependency events, exactly like the SoC task scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import SchedulingError
from .device import Device

__all__ = ["Event", "Stream"]


@dataclass
class Event:
    """A recorded point in a stream's simulated timeline."""

    name: str = "event"
    cycles: Optional[int] = None  # set when recorded

    @property
    def recorded(self) -> bool:
        return self.cycles is not None


class Stream:
    """An in-order task queue with simulated timestamps."""

    def __init__(self, device: Device, name: str = "stream",
                 launch_overhead_cycles: int = 2000) -> None:
        self.device = device
        self.name = name
        self.launch_overhead_cycles = launch_overhead_cycles
        self._cursor = 0  # stream-local simulated time

    def launch(self, program, functional: bool = True,
               wait_for: Optional[List[Event]] = None) -> None:
        """Enqueue a program; it starts after the stream's prior work and
        all ``wait_for`` events."""
        start = self._cursor + self.launch_overhead_cycles
        for event in wait_for or ():
            if not event.recorded:
                raise SchedulingError(
                    f"stream {self.name!r} waits on unrecorded event "
                    f"{event.name!r}"
                )
            start = max(start, event.cycles)
        result = self.device.run_program(program, functional=functional)
        self._cursor = start + result.cycles

    def record(self, event: Event) -> Event:
        event.cycles = self._cursor
        return event

    def synchronize(self) -> int:
        """Host-side join; returns the stream's simulated finish time."""
        return self._cursor
