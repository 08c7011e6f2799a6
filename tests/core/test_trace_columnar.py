"""Columnar trace aggregates must be bit-identical to a list walk.

The trace stores parallel numpy columns and answers every query
with masked reductions; these tests pin each aggregate against a pure-
Python reference that walks ``trace.events`` the way the original
row-oriented implementation did, over randomized flagged programs and
hand-built event lists.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ASCEND_MAX
from repro.core.costs import CostModel
from repro.core.engine import schedule
from repro.core.trace import ExecutionTrace, TraceEvent, _MOVE_TYPES
from repro.dtypes import FP16, FP32
from repro.isa import (
    CopyInstr,
    CubeMatmul,
    MemSpace,
    Pipe,
    Region,
    ScalarInstr,
    VectorInstr,
    VectorOpcode,
)
from repro.reliability import clear_plan, fault_scope, parse_fault_spec

from .test_engine_equivalence import _random_flagged_program

_COSTS = CostModel(ASCEND_MAX)


# -- the legacy list-walk reference (what the row-oriented trace did) ---------

def _ref_total_cycles(events):
    return max((e.end for e in events), default=0)


def _ref_busy(events, pipe, tag=None):
    return sum(e.cycles for e in events
               if e.pipe is pipe and (tag is None or e.tag == tag))


def _ref_tags(events):
    ordered = []
    for e in events:
        if e.tag and e.tag not in ordered:
            ordered.append(e.tag)
    return ordered


def _ref_span(events, tag):
    matching = [e for e in events if e.tag == tag]
    if not matching:
        return (0, 0)
    return (min(e.start for e in matching), max(e.end for e in matching))


def _ref_l1_traffic(events):
    read = write = 0
    for e in events:
        if not isinstance(e.instr, _MOVE_TYPES):
            continue
        if e.instr.src.space is MemSpace.L1:
            read += e.instr.src.nbytes
        if e.instr.dst.space is MemSpace.L1:
            write += e.instr.dst.nbytes
    return (read, write)


def _ref_gm_traffic(events):
    read = write = 0
    for e in events:
        if not isinstance(e.instr, _MOVE_TYPES):
            continue
        if e.instr.src.space is MemSpace.GM:
            read += e.instr.dst.nbytes
        if e.instr.dst.space is MemSpace.GM:
            write += e.instr.src.nbytes
    return (read, write)


def _ref_moved_bytes(events, src, dst, tag=None):
    total = 0
    for e in events:
        if not isinstance(e.instr, _MOVE_TYPES):
            continue
        if tag is not None and e.tag != tag:
            continue
        if e.instr.src.space is src and e.instr.dst.space is dst:
            total += e.instr.dst.nbytes if src is MemSpace.GM \
                else e.instr.src.nbytes
    return total


def _assert_all_aggregates_match(trace):
    events = list(trace.events)
    assert trace.total_cycles == _ref_total_cycles(events)
    assert type(trace.total_cycles) is int
    tags = _ref_tags(events)
    assert trace.tags() == tags
    probes = [None] + tags + ["no-such-tag"]
    for pipe in Pipe:
        for tag in probes:
            got = trace.busy_cycles(pipe, tag=tag)
            assert got == _ref_busy(events, pipe, tag)
            assert type(got) is int
    for tag in tags + ["no-such-tag"]:
        assert trace.span(tag) == _ref_span(events, tag)
    for tag in probes:
        for src in (MemSpace.GM, MemSpace.L1, MemSpace.UB):
            for dst in (MemSpace.L1, MemSpace.L0A, MemSpace.GM, MemSpace.UB):
                assert trace.moved_bytes(src, dst, tag) \
                    == _ref_moved_bytes(events, src, dst, tag)
    summary = trace.summary()
    assert summary.total_cycles == trace.total_cycles
    assert summary.busy_by_pipe \
        == tuple(_ref_busy(events, p) for p in Pipe)
    assert (summary.l1_read_bytes, summary.l1_write_bytes) \
        == _ref_l1_traffic(events)
    assert (summary.gm_read_bytes, summary.gm_write_bytes) \
        == _ref_gm_traffic(events)


def _tagged_payload(rng, tags):
    """A payload instruction with a randomized tag and move route."""
    tag = tags[int(rng.integers(0, len(tags)))]
    kind = rng.integers(0, 4)
    if kind == 0:
        return CubeMatmul(
            a=Region(MemSpace.L0A, 0, (16, 16), FP16),
            b=Region(MemSpace.L0B, 0, (16, 16), FP16),
            c=Region(MemSpace.L0C, 0, (16, 16), FP32),
            tag=tag,
        )
    if kind == 1:
        routes = ((MemSpace.GM, MemSpace.L1), (MemSpace.L1, MemSpace.L0A),
                  (MemSpace.UB, MemSpace.L1), (MemSpace.UB, MemSpace.GM))
        src, dst = routes[int(rng.integers(0, len(routes)))]
        elems = int(rng.integers(1, 128))
        return CopyInstr(dst=Region(dst, 0, (elems,), FP16),
                         src=Region(src, 0, (elems,), FP16), tag=tag)
    if kind == 2:
        return VectorInstr(op=VectorOpcode.ADD,
                           dst=Region(MemSpace.UB, 0, (64,), FP16),
                           srcs=(Region(MemSpace.UB, 0, (64,), FP16),
                                 Region(MemSpace.UB, 0, (64,), FP16)),
                           tag=tag)
    return ScalarInstr(op="nop", cycles=int(rng.integers(1, 5)), tag=tag)


def _random_events(rng, n):
    """A synthetic event list with irregular times, tags and routes."""
    tags = ["", "conv1", "fc", "层.0"]  # incl. empty and non-ASCII
    pipes = list(Pipe)
    events = []
    clock = 0
    for i in range(n):
        start = clock + int(rng.integers(0, 5))
        end = start + int(rng.integers(1, 20))
        clock = start
        events.append(TraceEvent(
            index=i, instr=_tagged_payload(rng, tags),
            pipe=pipes[int(rng.integers(0, len(pipes)))],
            start=start, end=end,
        ))
    return events


class TestAggregatesBitIdentical:
    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 60))
    @settings(max_examples=50, deadline=None)
    def test_scheduled_program_aggregates(self, seed, n):
        rng = np.random.default_rng(seed)
        program = _random_flagged_program(rng, n, allow_deadlock=False)
        trace = schedule(program, _COSTS)
        _assert_all_aggregates_match(trace)

    @pytest.mark.faults
    @pytest.mark.parametrize("spec", [
        pytest.param("seed=3;sync:action=dup,p=1", id="dup"),
        pytest.param("seed=5;sync:action=reorder,p=0.5", id="reorder"),
    ])
    def test_survives_sync_faults(self, spec):
        """Duplicated or reordered flag traffic changes the schedule, not
        the bookkeeping: flags carry no bytes, and every aggregate still
        matches the event walk."""
        rng = np.random.default_rng(11)
        program = _random_flagged_program(rng, 40, allow_deadlock=False)
        try:
            with fault_scope(parse_fault_spec(spec)):
                trace = schedule(program, _COSTS)
        finally:
            clear_plan()
        _assert_all_aggregates_match(trace)

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(0, 120))
    @settings(max_examples=50, deadline=None)
    def test_synthetic_event_aggregates(self, seed, n):
        rng = np.random.default_rng(seed)
        trace = ExecutionTrace(events=_random_events(rng, n))
        _assert_all_aggregates_match(trace)

    def test_empty_trace(self):
        trace = ExecutionTrace()
        assert trace.total_cycles == 0
        assert trace.busy_cycles(Pipe.M) == 0
        assert trace.tags() == []
        assert trace.span("x") == (0, 0)
        summary = trace.summary()
        assert (summary.l1_read_bytes, summary.l1_write_bytes,
                summary.gm_read_bytes, summary.gm_write_bytes) == (0, 0, 0, 0)
        assert len(trace.events) == 0


class TestArenaConstruction:
    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_append_path_equals_columnar_path(self, seed, n):
        """A trace rebuilt from its own event list by the constructor is
        indistinguishable from the scheduler's column-built one."""
        rng = np.random.default_rng(seed)
        program = _random_flagged_program(rng, n, allow_deadlock=False)
        columnar = schedule(program, _COSTS)
        rebuilt = ExecutionTrace(events=list(columnar.events))
        assert rebuilt.events == columnar.events
        assert rebuilt.summary() == columnar.summary()
        assert rebuilt.tags() == columnar.tags()


class TestMemoryFootprint:
    def test_event_has_no_dict(self):
        event = TraceEvent(index=0, instr=ScalarInstr(op="nop", cycles=1),
                           pipe=Pipe.S, start=0, end=1)
        assert not hasattr(event, "__dict__")
        # frozen + slots: no per-event spill (3.11 raises TypeError from
        # the regenerated slots class, later versions FrozenInstanceError)
        with pytest.raises((AttributeError, TypeError)):
            event.extra = 1

    def test_trace_has_no_dict(self):
        assert not hasattr(ExecutionTrace(), "__dict__")

    def test_tags_are_interned_once(self):
        """10k events over 3 distinct tags store 3 strings, not 10k."""
        instrs = [ScalarInstr(op="nop", cycles=1, tag=f"layer{i % 3}")
                  for i in range(3)]
        trace = ExecutionTrace(
            TraceEvent(index=i, instr=instrs[i % 3], pipe=Pipe.S,
                       start=i, end=i + 1)
            for i in range(10_000))
        assert trace.tags() == ["layer0", "layer1", "layer2"]
        assert len(trace._tag_names) == 4  # "" + 3 interned tags
        assert trace._tag_id[:len(trace)].dtype == np.int32


class TestEventsView:
    def _trace(self):
        rng = np.random.default_rng(3)
        return ExecutionTrace(events=_random_events(rng, 17))

    def test_indexing_and_slicing(self):
        trace = self._trace()
        events = list(trace.events)
        view = trace.events
        assert view[0] == events[0]
        assert view[-1] == events[-1]
        assert view[3:9] == events[3:9]
        assert view[::4] == events[::4]
        with pytest.raises(IndexError):
            view[len(events)]

    def test_equality(self):
        trace = self._trace()
        other = ExecutionTrace(events=list(trace.events))
        assert trace.events == other.events
        assert trace.events == list(trace.events)
        longer = ExecutionTrace(list(trace.events) + [trace.events[0]])
        assert trace.events != longer.events

    def test_materialized_events_are_typed(self):
        trace = self._trace()
        for event in trace.events:
            assert isinstance(event, TraceEvent)
            assert isinstance(event.pipe, Pipe)
            assert type(event.start) is int and type(event.end) is int
