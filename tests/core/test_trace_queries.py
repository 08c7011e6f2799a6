"""ExecutionTrace query tests beyond the engine basics."""

import pytest

from repro.config import ASCEND_MAX
from repro.core import CostModel
from repro.core.engine import schedule
from repro.core.trace import _EventsView
from repro.dtypes import FP16
from repro.isa import CopyInstr, MemSpace, Pipe, Program, Region, ScalarInstr


@pytest.fixture
def traced():
    prog = Program([
        CopyInstr(dst=Region(MemSpace.L1, 0, (64,), FP16),
                  src=Region(MemSpace.GM, 0, (64,), FP16), tag="load"),
        CopyInstr(dst=Region(MemSpace.L0A, 0, (64,), FP16),
                  src=Region(MemSpace.L1, 0, (64,), FP16), tag="feed"),
        ScalarInstr(op="nop", cycles=2, tag="ctrl"),
        CopyInstr(dst=Region(MemSpace.GM, 0, (64,), FP16),
                  src=Region(MemSpace.UB, 0, (64,), FP16), tag="store"),
    ])
    return schedule(prog, CostModel(ASCEND_MAX))


class TestTraceQueries:
    def test_tags_all_present(self, traced):
        # Events are causally ordered; parallel pipes may interleave tags,
        # but every tag appears exactly once.
        assert set(traced.tags()) == {"load", "feed", "ctrl", "store"}
        assert len(traced.tags()) == 4

    def test_span_covers_tag(self, traced):
        start, end = traced.span("load")
        assert 0 <= start < end

    def test_span_of_missing_tag_is_zero(self, traced):
        assert traced.span("missing") == (0, 0)

    def test_busy_cycles_filtered_by_tag(self, traced):
        assert traced.busy_cycles(Pipe.MTE2, tag="load") > 0
        assert traced.busy_cycles(Pipe.MTE2, tag="store") == 0

    def test_per_tag_busy(self, traced):
        busy = {tag: traced.busy_cycles(Pipe.MTE1, tag=tag)
                for tag in traced.tags()}
        assert [tag for tag, cycles in busy.items() if cycles] == ["feed"]

    def test_gm_traffic_split(self, traced):
        summary = traced.summary()
        assert summary.gm_read_bytes == 128  # 64 fp16 loaded
        assert summary.gm_write_bytes == 128  # 64 fp16 stored

    def test_moved_bytes_by_route(self, traced):
        assert traced.moved_bytes(MemSpace.L1, MemSpace.L0A) == 128
        assert traced.moved_bytes(MemSpace.L0A, MemSpace.L1) == 0

    def test_utilization_bounds(self, traced):
        for pipe in Pipe:
            assert 0.0 <= traced.utilization(pipe) <= 1.0


class TestEventsViewSlicing:
    """The satellite regression: slicing events decayed to a plain list,
    losing the lazy view semantics (and its ``==`` with other views)."""

    def test_slice_returns_a_view_not_a_list(self, traced):
        head = traced.events[:2]
        assert isinstance(head, _EventsView)
        assert not isinstance(head, list)
        assert len(head) == 2
        assert list(head) == list(traced.events)[:2]

    def test_negative_and_step_slices(self, traced):
        events = traced.events
        reference = list(events)
        for sl in (slice(-2, None), slice(None, None, 2),
                   slice(None, None, -1), slice(3, 1), slice(-1, -3, -1),
                   slice(1, None, 3)):
            view = events[sl]
            assert isinstance(view, _EventsView)
            assert list(view) == reference[sl]

    def test_nested_slicing_and_indexing(self, traced):
        events = traced.events
        nested = events[1:][::-1]
        assert isinstance(nested, _EventsView)
        assert list(nested) == list(events)[1:][::-1]
        assert nested[0] == list(events)[-1]
        assert nested[-1] == list(events)[1]
        with pytest.raises(IndexError):
            nested[len(nested)]

    def test_empty_slice_compares_equal(self, traced):
        assert len(traced.events[2:2]) == 0
        assert traced.events[2:2] == traced.events[3:3]

    def test_slices_compare_with_views_and_lists(self, traced):
        events = traced.events
        assert events[:] == events
        assert events[:2] == list(events)[:2]
        assert events[:2] != events[:3]
