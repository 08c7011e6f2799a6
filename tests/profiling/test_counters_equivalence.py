"""PerfCounters is a pure view over the trace arena.

Two claims are pinned here, both hypothesis-gated over randomized
multi-pipe flagged programs:

* every aggregate a counters registry reports equals the number the
  trace's own masked reductions produce (``summary()``, ``moved_bytes``,
  a plain-python stall oracle);
* counting changes nothing it reads — ``from_trace`` leaves the trace's
  columns byte-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ASCEND_MAX
from repro.core.costs import CostModel
from repro.core.engine import schedule
from repro.isa import MemSpace, Pipe
from repro.isa.instructions import OP_WAIT
from repro.profiling import PerfCounters
from repro.profiling.counters import KIND_NAMES

from tests.core.test_engine_equivalence import _random_flagged_program

_COSTS = CostModel(ASCEND_MAX)


def _traced(seed: int, n: int):
    rng = np.random.default_rng(seed)
    program = _random_flagged_program(rng, n, allow_deadlock=False)
    return program, schedule(program, _COSTS)


class TestCountersMatchTrace:
    """from_trace fields are defined equal to the trace's own queries."""

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_summary_fields(self, seed, n):
        _, trace = _traced(seed, n)
        counters = PerfCounters.from_trace(trace)
        summary = trace.summary()
        assert counters.total_cycles == summary.total_cycles
        assert counters.busy_by_pipe == list(summary.busy_by_pipe)
        assert counters.l1_read_bytes == summary.l1_read_bytes
        assert counters.l1_write_bytes == summary.l1_write_bytes
        assert counters.gm_read_bytes == summary.gm_read_bytes
        assert counters.gm_write_bytes == summary.gm_write_bytes
        assert counters.events == len(trace)
        assert counters.traces == 1

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_kind_mix_partitions_events(self, seed, n):
        _, trace = _traced(seed, n)
        counters = PerfCounters.from_trace(trace)
        assert sum(counters.kind_events.values()) == len(trace)
        assert set(counters.kind_events) <= set(KIND_NAMES.values())

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_route_matrix_matches_moved_bytes(self, seed, n):
        _, trace = _traced(seed, n)
        counters = PerfCounters.from_trace(trace)
        for route, nbytes in counters.route_bytes.items():
            src, dst = route.split("->")
            assert nbytes == trace.moved_bytes(MemSpace[src], MemSpace[dst])
        # ...and the matrix is complete: any route it omits moved nothing.
        from_trace_total = sum(
            trace.moved_bytes(src, dst)
            for src in MemSpace for dst in MemSpace)
        assert counters.moved_bytes_total == from_trace_total


class TestWaitAttribution:
    """Stall accounting invariants plus a plain-python gap oracle."""

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_wait_histogram_invariants(self, seed, n):
        _, trace = _traced(seed, n)
        counters = PerfCounters.from_trace(trace)
        wait_mask = trace.arena.kind == OP_WAIT
        assert sum(count for count, _ in counters.flag_waits.values()) \
            == int(wait_mask.sum())
        assert sum(stall for _, stall in counters.flag_waits.values()) \
            == counters.stall_cycles == sum(counters.wait_by_pipe)
        for pipe in Pipe:
            # Gaps on one pipe's timeline are disjoint sub-intervals of
            # the makespan.
            assert 0 <= counters.wait(pipe) <= counters.total_cycles

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_gap_oracle(self, seed, n):
        """Re-derive per-pipe stall with a scalar loop: walk each pipe's
        timeline in (start, end) order and charge idle gaps closed by a
        ``wait_flag`` to that pipe."""
        _, trace = _traced(seed, n)
        counters = PerfCounters.from_trace(trace)
        wait_mask = trace.arena.kind == OP_WAIT
        expected = [0] * len(Pipe)
        for p in range(len(Pipe)):
            rows = [i for i in range(len(trace))
                    if int(trace.pipes[i]) == p]
            rows.sort(key=lambda i: (int(trace.starts[i]),
                                     int(trace.ends[i])))
            prev_end = 0
            for i in rows:
                gap = max(int(trace.starts[i]) - prev_end, 0)
                if wait_mask[i]:
                    expected[p] += gap
                prev_end = int(trace.ends[i])
        assert counters.wait_by_pipe == expected


class TestProfilingIsPure:
    """Counting reads a finished trace and never writes to it."""

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_from_trace_leaves_trace_intact(self, seed, n):
        _, trace = _traced(seed, n)

        def columns():
            return [(column.dtype, column.tobytes()) for column in (
                trace.starts, trace.ends, trace.pipes, trace.arena.kind)]

        before = columns()
        PerfCounters.from_trace(trace)
        assert columns() == before


class TestAttachEnvironment:
    def test_takes_numeric_snapshots(self):
        _, trace = _traced(seed=3, n=20)
        counters = PerfCounters.from_trace(trace)
        assert counters.cache == {}
        totals = counters.attach_environment()
        assert totals is counters
        assert totals.cache
        assert "schema" not in totals.cache
        assert all(isinstance(v, int) and not isinstance(v, bool)
                   for v in totals.cache.values())


class TestCountersAlgebra:
    def test_add_is_sequential_composition(self):
        _, t1 = _traced(seed=1, n=30)
        _, t2 = _traced(seed=2, n=40)
        a = PerfCounters.from_trace(t1)
        b = PerfCounters.from_trace(t2)
        merged = PerfCounters.merged([a, b])
        assert merged.total_cycles == a.total_cycles + b.total_cycles
        assert merged.events == a.events + b.events
        assert merged.traces == 2
        for p in range(len(Pipe)):
            assert merged.busy_by_pipe[p] == \
                a.busy_by_pipe[p] + b.busy_by_pipe[p]
            assert merged.wait_by_pipe[p] == \
                a.wait_by_pipe[p] + b.wait_by_pipe[p]
        for channel in set(a.flag_waits) | set(b.flag_waits):
            expect = [x + y for x, y in zip(
                a.flag_waits.get(channel, [0, 0]),
                b.flag_waits.get(channel, [0, 0]))]
            assert merged.flag_waits[channel] == expect
        assert merged.l1_read_bytes == a.l1_read_bytes + b.l1_read_bytes
        assert merged.gm_write_bytes == a.gm_write_bytes + b.gm_write_bytes

    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_dict_round_trip(self, seed, n):
        _, trace = _traced(seed, n)
        counters = PerfCounters.from_trace(trace)
        assert PerfCounters.from_dict(counters.to_dict()) == counters

    def test_zero_cycle_derived_metrics(self):
        empty = PerfCounters()
        assert empty.utilization(Pipe.M) == 0.0
        assert empty.l1_read_bits_per_cycle == 0.0
        assert empty.cube_vector_ratio == 0.0

    def test_cube_vector_ratio_conventions(self):
        counters = PerfCounters()
        counters.busy_by_pipe[int(Pipe.M)] = 100
        assert counters.cube_vector_ratio == float("inf")
        counters.busy_by_pipe[int(Pipe.V)] = 50
        assert counters.cube_vector_ratio == pytest.approx(2.0)
