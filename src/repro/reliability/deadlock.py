"""Wait-for-graph deadlock diagnostics for the multi-queue engine.

When a drain ends with instructions left (Figure 3's failure mode: a
``wait_flag`` whose ``set_flag`` never retires), the engine used to raise
an opaque "stalled pipe heads" string.  This module is the watchdog that
replaces it: from the stalled pipe heads and the set of still-pending
``set_flag`` instructions it reconstructs the *wait-for graph* over flag
channels and produces a structured :class:`DeadlockReport` that names

* the **never-set channel** — a wait whose producing set does not exist
  anywhere in the remaining program (a missing/dropped flag), with the
  consuming instruction index;
* or the **cycle** — pipes each waiting on a channel whose producer pipe
  is itself stalled (crossed waits), with both the consuming wait index
  and the emitting pending-set index per edge.

The engine drain and the fixpoint oracle the tests keep feed the same
facts through :func:`build_report`, so the guilty channel is named
identically by both — asserted by ``tests/core/test_deadlock_report.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.channels import GEMM_CHANNELS, VECTOR_CHANNELS, unpack_channel
from ..isa.pipes import Pipe

__all__ = ["PipeStall", "DeadlockReport", "build_report", "channel_label"]


def channel_label(packed: int) -> str:
    """Human name for a packed channel: ``MTE2->MTE1 ev0 (L1 stage ready)``."""
    src, dst, event = unpack_channel(packed)
    base = f"{src}->{dst} ev{event}"
    known = GEMM_CHANNELS.get((src, dst, event)) \
        or VECTOR_CHANNELS.get((src, dst, event))
    return f"{base} ({known})" if known else base


@dataclass(frozen=True)
class PipeStall:
    """One stalled pipe head at deadlock time."""

    pipe: str                      # waiting pipe name
    index: int                     # program index of the stalled head
    kind: str                      # instruction class / opcode name
    channel: Optional[int] = None  # packed channel it waits on, if a wait
    producer_index: Optional[int] = None  # pending set's index, if any
    never_set: bool = False        # no pending set exists for the channel

    @property
    def channel_name(self) -> Optional[str]:
        return channel_label(self.channel) if self.channel is not None \
            else None


@dataclass(frozen=True)
class DeadlockReport:
    """Structured diagnosis of one engine deadlock."""

    stalls: Tuple[PipeStall, ...]
    cycle: Tuple[str, ...] = ()          # pipe names forming the wait cycle
    never_set: Tuple[int, ...] = ()      # packed channels nobody will set
    injected: bool = False               # a sync fault was injected this run

    @property
    def guilty_channels(self) -> Tuple[int, ...]:
        """The channels to blame: never-set first, else the cycle's."""
        if self.never_set:
            return self.never_set
        if self.cycle:
            members = set(self.cycle)
            return tuple(s.channel for s in self.stalls
                         if s.channel is not None and s.pipe in members)
        return tuple(s.channel for s in self.stalls
                     if s.channel is not None)

    @property
    def guilty_channel_names(self) -> Tuple[str, ...]:
        return tuple(channel_label(c) for c in self.guilty_channels)

    def describe(self) -> str:
        lines: List[str] = []
        for s in self.stalls:
            if s.channel is None:
                lines.append(f"pipe {s.pipe} stalled at #{s.index} {s.kind}")
            elif s.never_set:
                lines.append(
                    f"pipe {s.pipe} stalled at #{s.index} waiting on "
                    f"channel {s.channel_name}, which is never set "
                    f"(no pending set_flag remains)")
            else:
                lines.append(
                    f"pipe {s.pipe} stalled at #{s.index} waiting on "
                    f"channel {s.channel_name} whose set_flag "
                    f"#{s.producer_index} has not retired")
        head = "deadlock"
        if self.injected:
            head += " (injected sync fault)"
        if self.never_set:
            head += ": never-set channel " + ", ".join(
                channel_label(c) for c in self.never_set)
        elif self.cycle:
            head += ": wait-for cycle " + " -> ".join(
                self.cycle + (self.cycle[0],))
        return head + "\n  " + "\n  ".join(lines)


def build_report(stalls: Sequence[PipeStall],
                 injected: bool = False) -> DeadlockReport:
    """Assemble the wait-for graph and diagnose it.

    ``stalls`` carries one entry per stalled pipe head, with
    ``never_set``/``producer_index`` already resolved by the scheduler
    (each drain knows its own pending-set bookkeeping).  This function
    derives the graph-level facts: the never-set channel list and the
    wait-for cycle over pipes.
    """
    stalls = tuple(sorted(stalls, key=lambda s: (Pipe[s.pipe], s.index)))
    never = tuple(sorted({s.channel for s in stalls
                          if s.never_set and s.channel is not None}))

    # wait-for edges: the stalled pipe waits on the channel's src pipe.
    edges: Dict[str, str] = {}
    for s in stalls:
        if s.channel is not None and not s.never_set:
            src, _, _ = unpack_channel(s.channel)
            edges[s.pipe] = str(src)

    cycle: Tuple[str, ...] = ()
    for start in edges:
        seen: List[str] = []
        node: Optional[str] = start
        while node is not None and node not in seen:
            seen.append(node)
            node = edges.get(node)
        if node is not None:
            loop = seen[seen.index(node):]
            # canonical rotation so every scheduler reports the same cycle
            pivot = loop.index(min(loop, key=lambda p: int(Pipe[p])))
            cycle = tuple(loop[pivot:] + loop[:pivot])
            break

    return DeadlockReport(stalls=stalls, cycle=cycle, never_set=never,
                          injected=injected)
