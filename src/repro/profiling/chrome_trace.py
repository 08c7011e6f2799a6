"""Chrome ``trace_event`` export: open a schedule in Perfetto.

Converts :class:`~repro.core.trace.ExecutionTrace` arenas into the
Trace Event JSON format that ``chrome://tracing`` and
https://ui.perfetto.dev load natively:

* one *thread* track per pipe (MTE2, MTE1, M, V, MTE3, S — top to
  bottom in dataflow order) drawing every event as a duration slice
  named by its layer tag (falling back to the instruction kind);
* ``set_flag -> wait_flag`` edges as *flow events* (arrows), matched
  per channel in program order — the same FIFO discipline the timing
  engine resolves flags with — so Figure 3's synchronization structure
  is visible as arrows between pipes;
* multi-layer exports lay sections end-to-end on one clock and add a
  per-layer span track, so a whole ResNet forward pass reads like a
  flame chart.

Timestamps are emitted in raw cycles (1 "us" per cycle in the JSON):
relative dilation is what matters when reading a schedule, and integer
cycles survive the round trip exactly.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core.trace import ExecutionTrace
from ..isa.arena import FLAG_OPS
from ..isa.instructions import OP_BARRIER, OP_SET, OP_WAIT
from ..isa.pipes import Pipe
from .counters import KIND_NAMES

__all__ = ["trace_events", "chrome_trace", "write_chrome_trace"]

# Track order, top to bottom: dataflow direction (inbound copies above
# compute above outbound), scalar bookkeeping last.
_TRACK_ORDER = (Pipe.MTE2, Pipe.MTE1, Pipe.M, Pipe.V, Pipe.MTE3, Pipe.S)
_TRACK_NAMES = {
    Pipe.S: "S (scalar)",
    Pipe.M: "M (cube)",
    Pipe.V: "V (vector)",
    Pipe.MTE1: "MTE1 (L1->L0)",
    Pipe.MTE2: "MTE2 (GM->L1)",
    Pipe.MTE3: "MTE3 (UB->GM)",
}
# Pseudo-thread for per-layer spans in multi-section exports.
_LAYER_TID = 99


def _thread_metadata(pid: int) -> List[dict]:
    events = []
    for sort_index, pipe in enumerate(_TRACK_ORDER):
        events.append({"ph": "M", "pid": pid, "tid": int(pipe),
                       "name": "thread_name",
                       "args": {"name": _TRACK_NAMES[pipe]}})
        events.append({"ph": "M", "pid": pid, "tid": int(pipe),
                       "name": "thread_sort_index",
                       "args": {"sort_index": sort_index}})
    events.append({"ph": "M", "pid": pid, "tid": _LAYER_TID,
                   "name": "thread_name", "args": {"name": "layers"}})
    events.append({"ph": "M", "pid": pid, "tid": _LAYER_TID,
                   "name": "thread_sort_index",
                   "args": {"sort_index": len(_TRACK_ORDER)}})
    return events


def trace_events(trace: ExecutionTrace, pid: int = 0, time_offset: int = 0,
                 include_flags: bool = True, flow_base: int = 0
                 ) -> Tuple[List[dict], int]:
    """Trace-event dicts for one trace; returns (events, next flow id).

    Payload instructions always draw; flag events draw (and connect via
    flow arrows) unless ``include_flags`` is off.  ``time_offset``
    shifts the section on the shared clock; ``flow_base`` keeps flow
    ids unique across sections.
    """
    events: List[dict] = []
    n = len(trace)
    if n == 0:
        return events, flow_base
    arena = trace.arena
    starts = trace.starts.tolist()
    ends = trace.ends.tolist()
    pipes = trace.pipes.tolist()
    kinds = arena.kind.tolist()
    tag_ids = arena.tag_id.tolist()
    tags = arena.tags

    for i in range(n):
        kind = kinds[i]
        if kind in FLAG_OPS:
            if kind == OP_BARRIER or not include_flags:
                continue  # barriers (and flags when suppressed) draw nothing
            name = "set" if kind == OP_SET else "wait"
            category = "flag"
        else:
            name = tags[tag_ids[i]] or KIND_NAMES[kind]
            category = KIND_NAMES[kind]
        events.append({
            "ph": "X", "pid": pid, "tid": pipes[i], "cat": category,
            "name": name, "ts": time_offset + starts[i],
            "dur": max(ends[i] - starts[i], 1),
        })

    if include_flags:
        # FIFO flow matching, per channel, in program order — identical
        # to how the timing engine consumes flags, so every arrow drawn
        # is an edge the schedule actually honored.
        index = trace.indices.tolist()
        packed = arena.packed_channels().tolist()
        flag_rows = sorted(
            (i for i in range(n) if kinds[i] in (OP_SET, OP_WAIT)),
            key=lambda i: index[i])
        pending: Dict[int, List[int]] = {}
        flow_id = flow_base
        for i in flag_rows:
            channel = packed[i]
            if kinds[i] == OP_SET:
                pending.setdefault(channel, []).append(i)
                continue
            queue = pending.get(channel)
            if not queue:
                continue  # wait satisfied by a pre-trace flag state
            producer = queue.pop(0)
            events.append({
                "ph": "s", "pid": pid, "tid": pipes[producer],
                "cat": "flag", "name": "flag", "id": flow_id,
                "ts": time_offset + starts[producer],
            })
            events.append({
                "ph": "f", "bp": "e", "pid": pid, "tid": pipes[i],
                "cat": "flag", "name": "flag", "id": flow_id,
                "ts": time_offset + starts[i],
            })
            flow_id += 1
        return events, flow_id
    return events, flow_base


_Section = Tuple[str, ExecutionTrace]


def chrome_trace(sections: Union[ExecutionTrace, Iterable[_Section]],
                 manifest: Optional[dict] = None,
                 include_flags: bool = True) -> dict:
    """The full JSON document for one trace or a ``[(name, trace)]`` list.

    Sections are laid end-to-end on one clock (the model's sequential
    layer order) with a span slice per section on the ``layers`` track.
    ``manifest`` lands under ``otherData`` so a shared trace file
    carries its own provenance.
    """
    if isinstance(sections, ExecutionTrace):
        sections = [("trace", sections)]
    events = _thread_metadata(pid=0)
    clock = 0
    flow = 0
    for name, trace in sections:
        span = trace.total_cycles
        section_events, flow = trace_events(
            trace, time_offset=clock, include_flags=include_flags,
            flow_base=flow)
        events.extend(section_events)
        events.append({
            "ph": "X", "pid": 0, "tid": _LAYER_TID, "cat": "layer",
            "name": name, "ts": clock, "dur": max(span, 1),
        })
        clock += span
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if manifest is not None:
        document["otherData"] = manifest
    return document


def write_chrome_trace(path, sections, manifest: Optional[dict] = None,
                       include_flags: bool = True) -> dict:
    """Serialize :func:`chrome_trace` to ``path``; returns the document."""
    document = chrome_trace(sections, manifest=manifest,
                            include_flags=include_flags)
    # Encode once: ``json.dumps`` takes the C encoder, while ``json.dump``
    # streams through the pure-Python one (about 4x slower on a ResNet-50
    # trace).
    text = json.dumps(document, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return document
