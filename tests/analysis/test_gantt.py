"""Gantt renderer tests."""

import pytest

from repro.analysis import render_gantt
from repro.compiler import lower_gemm
from repro.config import ASCEND_MAX
from repro.core import CostModel, ExecutionTrace, TraceEvent
from repro.core.engine import schedule
from repro.isa import Pipe, Program, ScalarInstr

from tests.core.oracle import schedule_fixpoint


@pytest.fixture(scope="module")
def trace():
    prog = lower_gemm(256, 256, 256, ASCEND_MAX, tag="t")
    return schedule(prog, CostModel(ASCEND_MAX))


class TestGantt:
    def test_renders_all_active_pipes(self, trace):
        art = render_gantt(trace, width=80)
        for glyph in ("M", "V", "1", "2", "3"):
            assert glyph in art

    def test_window_slices(self, trace):
        full = render_gantt(trace, width=60)
        head = render_gantt(trace, width=60,
                            window=(0, trace.total_cycles // 4))
        assert full != head
        assert "cycles [0," in head

    def test_empty_trace(self):
        assert "empty" in render_gantt(ExecutionTrace())

    def test_bad_window_rejected(self, trace):
        with pytest.raises(ValueError):
            render_gantt(trace, window=(100, 50))

    def test_rows_are_fixed_width(self, trace):
        art = render_gantt(trace, width=50)
        body_lines = [l for l in art.splitlines() if "|" in l]
        widths = {l.index("|", 6) - l.index("|") for l in body_lines}
        # every pipe row has the same 50-column body
        assert len({l.count("|") for l in body_lines}) == 1


def _manual_trace(events):
    """Trace from ``(pipe, start, end)`` triples with scalar payloads."""
    return ExecutionTrace([
        TraceEvent(i, ScalarInstr(op="nop", cycles=max(end - start, 1)),
                   pipe, start, end)
        for i, (pipe, start, end) in enumerate(events)
    ])


def _row(art: str, pipe: Pipe) -> str:
    for line in art.splitlines():
        if line.strip().startswith(f"{pipe.name} |"):
            return line.split("|")[1]
    raise AssertionError(f"no row for {pipe.name} in:\n{art}")


class TestGanttBinning:
    """The satellite regression: float binning double-painted or dropped
    boundary columns; zero-duration events painted a phantom cell."""

    def test_boundary_aligned_events_do_not_bleed(self):
        # M covers exactly the first half, V exactly the second: no
        # column belongs to both.
        trace = _manual_trace([(Pipe.M, 0, 50), (Pipe.V, 50, 100)])
        art = render_gantt(trace, width=10)
        assert _row(art, Pipe.M) == "MMMMM     "
        assert _row(art, Pipe.V) == "     VVVVV"

    def test_event_ending_on_bin_edge_stops_there(self):
        trace = _manual_trace([(Pipe.M, 0, 10), (Pipe.V, 0, 100)])
        art = render_gantt(trace, width=10)
        assert _row(art, Pipe.M) == "M         "

    def test_single_cycle_event_paints_one_column(self):
        trace = _manual_trace([(Pipe.M, 50, 51), (Pipe.V, 0, 100)])
        assert _row(render_gantt(trace, width=10), Pipe.M) == "     M    "

    def test_zero_duration_event_paints_nothing(self):
        trace = ExecutionTrace([
            TraceEvent(0, ScalarInstr(op="nop", cycles=1), Pipe.V, 30, 30),
            TraceEvent(1, ScalarInstr(op="nop", cycles=100), Pipe.M,
                       0, 100),
        ])
        art = render_gantt(trace, width=10)
        assert _row(art, Pipe.V).strip() == ""
        assert _row(art, Pipe.M) == "M" * 10

    def test_windowed_boundaries_stay_exact(self):
        trace = _manual_trace([(Pipe.M, 0, 50), (Pipe.V, 50, 100)])
        art = render_gantt(trace, width=10, window=(25, 75))
        # Window [25, 75): M covers its first half, V its second.
        assert _row(art, Pipe.M) == "MMMMM     "
        assert _row(art, Pipe.V) == "     VVVVV"

    def test_identical_across_all_three_schedulers(self):
        """The drain over the lowered arena, the drain over an
        object-built copy, and the fixpoint oracle paint the same
        picture."""
        costs = CostModel(ASCEND_MAX)
        source = lower_gemm(128, 128, 128, ASCEND_MAX, tag="g")
        as_objects = Program(list(source), name=source.name)
        renders = {
            render_gantt(schedule(source, costs), width=64),
            render_gantt(schedule(as_objects, costs), width=64),
            render_gantt(schedule_fixpoint(as_objects, costs), width=64),
        }
        assert len(renders) == 1
