"""Execution pipes of an Ascend core (Section 2.2, Figure 1/3).

The paper names three instruction queues behind the PSQ — cube, vector and
MTE — plus the scalar unit itself.  The MTE performs three distinct data
movements with independently provisioned buses (Table 5 lists separate A,
B and UB bandwidths), so the reproduction splits it the way the shipped
DaVinci ISA does:

* ``MTE1`` — L1 -> L0A / L0B feeds (including img2col / transpose /
  decompression on the way),
* ``MTE2`` — inbound: global memory / LLC -> L1,
* ``MTE3`` — outbound: UB -> global memory / LLC.
"""

from __future__ import annotations

import enum

__all__ = ["Pipe"]


class Pipe(enum.IntEnum):
    """One in-order execution queue inside the core.

    An ``IntEnum`` so members hash and index as plain ints: the timing
    engine keys per-pipe state by ``int(pipe)`` in its hot loop, which
    avoids ~400k ``Enum.__hash__`` calls per large-model compile.
    """

    S = 0  # scalar
    M = 1  # cube
    V = 2  # vector
    MTE1 = 3
    MTE2 = 4
    MTE3 = 5

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name
