"""PerfCounters: one unified counter registry over the trace arena.

Every consumer that used to re-derive "how busy was the cube pipe" or
"how many bytes crossed L1" from raw traces — the figure benchmarks, the
gantt renderer, the SoC/cluster reports — reads one of these instead.
A :class:`PerfCounters` is populated in a *single vectorized pass* over
an :class:`~repro.core.trace.ExecutionTrace`'s columns (or copied from a
:class:`~repro.core.trace.TraceSummary` / compiled layer when the full
trace was never materialized), and its aggregate fields are defined to
be *exactly* the numbers the trace's own masked reductions produce —
the equivalence is pinned by ``tests/profiling/``.

Counters are a pure view: building one never mutates the trace, and the
profiling layer as a whole is observational — with ``REPRO_PROFILE``
off, schedules and traces are byte-identical to a build without it.

What one pass captures:

* per-pipe **busy** cycles (same convention as ``TraceSummary``: flag
  bookkeeping included, it is negligible against payload work);
* per-pipe **stall** cycles — idle gaps on a pipe's timeline attributed
  to the ``wait_flag`` that ended them, plus a per-flag-channel
  histogram of (waits, stalled cycles), the Figure 3 synchronization
  cost made measurable;
* **traffic**: the paper's four L1/GM figures, UB port traffic, and a
  full route matrix (``"GM->L1"`` -> bytes) matching ``moved_bytes``;
* **instruction mix** by kind (cube / vector / copy / img2col / ...).

Counters add: ``a.add(b)`` accumulates, modeling *sequential*
composition (total cycles sum — per-layer counters add up to the model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import math

import numpy as np

from ..core.trace import (
    KIND_COPY,
    KIND_CUBE,
    KIND_DECOMP,
    KIND_IMG2COL,
    KIND_NONE,
    KIND_SCALAR,
    KIND_TRANSPOSE,
    KIND_VECTOR,
    ExecutionTrace,
    TraceSummary,
)
from ..isa.memref import MemSpace
from ..isa.pipes import Pipe

__all__ = ["PerfCounters", "channel_name", "model_counters"]

_N_PIPES = len(Pipe)

# Human names for the arena's instruction-class codes.
KIND_NAMES = {
    KIND_NONE: "sync",
    KIND_CUBE: "cube",
    KIND_VECTOR: "vector",
    KIND_COPY: "copy",
    KIND_IMG2COL: "img2col",
    KIND_TRANSPOSE: "transpose",
    KIND_DECOMP: "decompress",
    KIND_SCALAR: "scalar",
}


def channel_name(packed: int) -> str:
    """Readable name for a packed flag channel: ``"MTE2->M#3"``."""
    from ..isa.channels import unpack_channel

    src, dst, event = unpack_channel(int(packed))
    return f"{src.name}->{dst.name}#{event}"


def _route_name(src: int, dst: int) -> str:
    return f"{MemSpace(src).name}->{MemSpace(dst).name}"


@dataclass
class PerfCounters:
    """Unified performance-counter registry (see module docstring).

    All fields are plain ints/dicts so a registry JSON-serializes
    losslessly (:meth:`to_dict` / :meth:`from_dict`).
    """

    total_cycles: int = 0
    events: int = 0
    busy_by_pipe: List[int] = field(
        default_factory=lambda: [0] * _N_PIPES)
    wait_by_pipe: List[int] = field(
        default_factory=lambda: [0] * _N_PIPES)
    # flag channel name -> [wait count, cycles stalled behind that wait]
    flag_waits: Dict[str, List[int]] = field(default_factory=dict)
    # instruction-kind name -> event count
    kind_events: Dict[str, int] = field(default_factory=dict)
    # "SRC->DST" route -> bytes moved (moved_bytes convention)
    route_bytes: Dict[str, int] = field(default_factory=dict)
    l1_read_bytes: int = 0
    l1_write_bytes: int = 0
    gm_read_bytes: int = 0
    gm_write_bytes: int = 0
    ub_read_bytes: int = 0
    ub_write_bytes: int = 0
    # How many traces / summarized layers were folded in.
    traces: int = 0
    layers: int = 0
    # Environment snapshots (compile cache, fault injection) attached by
    # the session/CLI at report time; never populated by from_trace.
    cache: Dict[str, int] = field(default_factory=dict)
    faults: Dict[str, int] = field(default_factory=dict)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: ExecutionTrace) -> "PerfCounters":
        """One vectorized pass over the trace arena.

        Busy cycles and L1/GM traffic are *defined* to match
        :meth:`ExecutionTrace.summary` — same masks, same columns — so a
        counters registry can replace any summary consumer verbatim.
        """
        counters = cls()
        n = len(trace)
        counters.traces = 1
        if n == 0:
            return counters
        starts = trace.starts
        ends = trace.ends
        pipes = trace.pipes

        summary = trace.summary()
        counters.total_cycles = summary.total_cycles
        counters.busy_by_pipe = list(summary.busy_by_pipe)
        counters.l1_read_bytes = summary.l1_read_bytes
        counters.l1_write_bytes = summary.l1_write_bytes
        counters.gm_read_bytes = summary.gm_read_bytes
        counters.gm_write_bytes = summary.gm_write_bytes
        counters.events = n

        # Instruction mix.
        kind_counts = np.bincount(trace.kinds, minlength=len(KIND_NAMES))
        counters.kind_events = {
            KIND_NAMES[code]: int(count)
            for code, count in enumerate(kind_counts.tolist())
            if count
        }

        # UB port traffic + the full route matrix.
        src_space = trace.src_spaces
        dst_space = trace.dst_spaces
        src_bytes = trace.src_bytes
        dst_bytes = trace.dst_bytes
        ub = int(MemSpace.UB)
        counters.ub_read_bytes = int(src_bytes[src_space == ub].sum())
        counters.ub_write_bytes = int(dst_bytes[dst_space == ub].sum())
        move = src_space >= 0
        if move.any():
            # moved_bytes convention: count at the consumer side for GM
            # reads (dst bytes), at the producer side otherwise.
            gm = int(MemSpace.GM)
            move_src = src_space[move].astype(np.int16)
            move_dst = dst_space[move].astype(np.int16)
            moved = np.where(src_space[move] == gm,
                             dst_bytes[move], src_bytes[move])
            route_key = move_src * len(MemSpace) + move_dst
            for key in np.unique(route_key):
                mask = route_key == key
                counters.route_bytes[
                    _route_name(int(key) // len(MemSpace),
                                int(key) % len(MemSpace))
                ] = int(moved[mask].sum())

        # Stall attribution: walk each pipe's timeline in start order; an
        # idle gap that a wait_flag terminates is stall charged to that
        # wait's channel.  (Gaps ended by non-flag events — issue
        # latency, program order — are idle but not synchronization
        # stall, and are deliberately not charged.)
        wait_mask, _set_mask, packed = trace.flag_columns()
        if wait_mask.any():
            order = np.lexsort((ends, starts, pipes))
            pipe_sorted = pipes[order]
            start_sorted = starts[order]
            prev_end = np.empty(n, np.int64)
            prev_end[0] = 0
            prev_end[1:] = ends[order][:-1]
            pipe_first = np.empty(n, bool)
            pipe_first[0] = True
            pipe_first[1:] = pipe_sorted[1:] != pipe_sorted[:-1]
            prev_end[pipe_first] = 0
            gaps_sorted = np.maximum(start_sorted - prev_end, 0)
            gap_of_row = np.empty(n, np.int64)
            gap_of_row[order] = gaps_sorted

            wait_rows = np.nonzero(wait_mask)[0]
            wait_pipes = pipes[wait_rows]
            wait_gaps = gap_of_row[wait_rows]
            for p in range(_N_PIPES):
                sel = wait_pipes == p
                if sel.any():
                    counters.wait_by_pipe[p] = int(wait_gaps[sel].sum())
            wait_channels = packed[wait_rows]
            for channel in np.unique(wait_channels):
                sel = wait_channels == channel
                counters.flag_waits[channel_name(channel)] = [
                    int(sel.sum()), int(wait_gaps[sel].sum())]
        return counters

    @classmethod
    def from_summary(cls, summary: TraceSummary) -> "PerfCounters":
        """Adopt a fast-path :class:`TraceSummary` (no flag/kind detail)."""
        counters = cls()
        counters.total_cycles = summary.total_cycles
        counters.busy_by_pipe = list(summary.busy_by_pipe)
        counters.l1_read_bytes = summary.l1_read_bytes
        counters.l1_write_bytes = summary.l1_write_bytes
        counters.gm_read_bytes = summary.gm_read_bytes
        counters.gm_write_bytes = summary.gm_write_bytes
        counters.traces = 1
        return counters

    @classmethod
    def from_layer(cls, layer) -> "PerfCounters":
        """Adopt a :class:`~repro.compiler.graph_engine.CompiledLayer`."""
        counters = cls()
        counters.total_cycles = layer.cycles
        counters.busy_by_pipe[int(Pipe.M)] = layer.cube_cycles
        counters.busy_by_pipe[int(Pipe.V)] = layer.vector_cycles
        counters.busy_by_pipe[int(Pipe.MTE1)] = layer.mte1_cycles
        counters.busy_by_pipe[int(Pipe.MTE2)] = layer.mte2_cycles
        counters.busy_by_pipe[int(Pipe.MTE3)] = layer.mte3_cycles
        counters.l1_read_bytes = layer.l1_read_bytes
        counters.l1_write_bytes = layer.l1_write_bytes
        counters.gm_read_bytes = layer.gm_read_bytes
        counters.gm_write_bytes = layer.gm_write_bytes
        counters.events = layer.instr_count
        counters.layers = 1
        return counters

    @classmethod
    def merged(cls, parts: Iterable["PerfCounters"]) -> "PerfCounters":
        total = cls()
        for part in parts:
            total.add(part)
        return total

    # -- accumulation ---------------------------------------------------------

    def add(self, other: "PerfCounters") -> "PerfCounters":
        """Accumulate ``other`` in place (sequential composition)."""
        self.total_cycles += other.total_cycles
        self.events += other.events
        for p in range(_N_PIPES):
            self.busy_by_pipe[p] += other.busy_by_pipe[p]
            self.wait_by_pipe[p] += other.wait_by_pipe[p]
        for channel, (count, stalled) in other.flag_waits.items():
            mine = self.flag_waits.setdefault(channel, [0, 0])
            mine[0] += count
            mine[1] += stalled
        for table, theirs in (
                (self.kind_events, other.kind_events),
                (self.route_bytes, other.route_bytes),
                (self.faults, other.faults)):
            for key, value in theirs.items():
                table[key] = table.get(key, 0) + value
        self.l1_read_bytes += other.l1_read_bytes
        self.l1_write_bytes += other.l1_write_bytes
        self.gm_read_bytes += other.gm_read_bytes
        self.gm_write_bytes += other.gm_write_bytes
        self.ub_read_bytes += other.ub_read_bytes
        self.ub_write_bytes += other.ub_write_bytes
        self.traces += other.traces
        self.layers += other.layers
        # Cache stats are process-wide snapshots, not additive: the most
        # recent snapshot wins.
        if other.cache:
            self.cache = dict(other.cache)
        return self

    def __iadd__(self, other: "PerfCounters") -> "PerfCounters":
        return self.add(other)

    # -- environment snapshots ------------------------------------------------

    def attach_environment(self) -> "PerfCounters":
        """Snapshot compile-cache and fault-injection counters.

        Called at report time (session finalize / CLI), never on the
        scheduling hot path.
        """
        from ..compiler import cache as compile_cache
        from ..reliability.injector import active_injector

        # Only the numeric counters: stats() also reports identity
        # fields (cache dir, schema version) which belong in the
        # RunManifest.
        self.cache = {k: v for k, v in compile_cache.stats().items()
                      if isinstance(v, int) and not isinstance(v, bool)
                      and k != "schema"}
        injector = active_injector()
        if injector is not None:
            self.faults = {k: int(v)
                           for k, v in injector.counters.items() if v}
        return self

    # -- derived metrics ------------------------------------------------------

    def busy(self, pipe: Pipe) -> int:
        return self.busy_by_pipe[int(pipe)]

    def wait(self, pipe: Pipe) -> int:
        """Cycles ``pipe`` sat stalled behind ``wait_flag`` edges."""
        return self.wait_by_pipe[int(pipe)]

    def utilization(self, pipe: Pipe) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.busy(pipe) / self.total_cycles

    @property
    def stall_cycles(self) -> int:
        return sum(self.wait_by_pipe)

    @property
    def cube_vector_ratio(self) -> float:
        """The paper's Figures 4-8 metric: cube busy / vector busy time.

        Counts with no vector work report ``inf``; counts with no cube
        work report 0.
        """
        vector = self.busy(Pipe.V)
        cube = self.busy(Pipe.M)
        if vector == 0:
            return math.inf if cube else 0.0
        return cube / vector

    @property
    def l1_read_bits_per_cycle(self) -> float:
        """Figure 9 metric (demand averaged over the counted cycles)."""
        if self.total_cycles == 0:
            return 0.0
        return self.l1_read_bytes * 8 / self.total_cycles

    @property
    def l1_write_bits_per_cycle(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.l1_write_bytes * 8 / self.total_cycles

    @property
    def moved_bytes_total(self) -> int:
        return sum(self.route_bytes.values())

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "events": self.events,
            "busy_by_pipe": {Pipe(p).name: cycles for p, cycles
                             in enumerate(self.busy_by_pipe)},
            "wait_by_pipe": {Pipe(p).name: cycles for p, cycles
                             in enumerate(self.wait_by_pipe)},
            "flag_waits": {channel: list(pair) for channel, pair
                           in self.flag_waits.items()},
            "kind_events": dict(self.kind_events),
            "route_bytes": dict(self.route_bytes),
            "l1_read_bytes": self.l1_read_bytes,
            "l1_write_bytes": self.l1_write_bytes,
            "gm_read_bytes": self.gm_read_bytes,
            "gm_write_bytes": self.gm_write_bytes,
            "ub_read_bytes": self.ub_read_bytes,
            "ub_write_bytes": self.ub_write_bytes,
            "traces": self.traces,
            "layers": self.layers,
            "cache": dict(self.cache),
            "faults": dict(self.faults),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PerfCounters":
        counters = cls()
        by_name = {Pipe[name]: int(v)
                   for name, v in payload.get("busy_by_pipe", {}).items()}
        for pipe, cycles in by_name.items():
            counters.busy_by_pipe[int(pipe)] = cycles
        for name, v in payload.get("wait_by_pipe", {}).items():
            counters.wait_by_pipe[int(Pipe[name])] = int(v)
        counters.flag_waits = {
            channel: [int(pair[0]), int(pair[1])]
            for channel, pair in payload.get("flag_waits", {}).items()}
        counters.kind_events = {k: int(v) for k, v
                                in payload.get("kind_events", {}).items()}
        counters.route_bytes = {k: int(v) for k, v
                                in payload.get("route_bytes", {}).items()}
        for name in ("total_cycles", "events", "l1_read_bytes",
                     "l1_write_bytes", "gm_read_bytes", "gm_write_bytes",
                     "ub_read_bytes", "ub_write_bytes", "traces", "layers"):
            setattr(counters, name, int(payload.get(name, 0)))
        counters.cache = {k: int(v)
                          for k, v in payload.get("cache", {}).items()}
        counters.faults = {k: int(v)
                           for k, v in payload.get("faults", {}).items()}
        return counters


def model_counters(compiled) -> List[Tuple[str, "PerfCounters"]]:
    """Per-layer counters of a compiled model: ``[(name, counters), ...]``.

    Duck-typed over :class:`~repro.compiler.graph_engine.CompiledModel`
    so benchmark helpers can stay import-cycle-free.
    """
    return [(layer.name, PerfCounters.from_layer(layer))
            for layer in compiled.layers]
