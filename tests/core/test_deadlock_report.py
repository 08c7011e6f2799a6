"""Deadlock diagnostics: the drain and the oracle name the same channel.

The engine drain's watchdog and the fixpoint oracle's each funnel their
stalled-pipe facts through one ``build_report``; these tests pin the
contract that the resulting
:class:`~repro.reliability.deadlock.DeadlockReport` identifies the same
channel whichever scheduler hit the wall.
"""

import pytest

from repro.config import ASCEND_MAX
from repro.core import CostModel
from repro.core.engine import schedule
from repro.errors import DeadlockError
from repro.isa import Pipe, Program, ScalarInstr, SetFlag, WaitFlag
from repro.isa.channels import pack_channel
from repro.reliability.deadlock import DeadlockReport, channel_label

from .oracle import schedule_fixpoint


@pytest.fixture
def costs():
    return CostModel(ASCEND_MAX)


def _report_from(scheduler, program, costs):
    with pytest.raises(DeadlockError) as exc:
        scheduler(program, costs)
    report = exc.value.report
    assert isinstance(report, DeadlockReport)
    # The message is the report's own rendering, so grepping logs and
    # catching the exception give the same story.
    assert str(exc.value) == report.describe()
    assert "stalled" in str(exc.value)
    return report


def _reports_all_schedulers(instrs, costs):
    """Run the program through the engine drain and the fixpoint oracle."""
    return {
        "drain": _report_from(schedule, Program(list(instrs)), costs),
        "oracle": _report_from(schedule_fixpoint, Program(list(instrs)),
                               costs),
    }


class TestGuiltyChannelAgreement:
    def test_missing_set(self, costs):
        """A wait whose flag nobody ever sets: never-set channel named."""
        instrs = [
            ScalarInstr(op="prep", cycles=3),
            WaitFlag(src_pipe=Pipe.MTE2, dst_pipe=Pipe.M, event_id=0),
        ]
        reports = _reports_all_schedulers(instrs, costs)
        expected = channel_label(pack_channel(Pipe.MTE2, Pipe.M, 0))
        for name, report in reports.items():
            assert report.guilty_channel_names == (expected,), name
            assert report.never_set, name
            assert expected in report.describe(), name
            assert "never set" in report.describe(), name

    def test_crossed_wait_pair(self, costs):
        """M and V each wait for a set the other only issues afterwards."""
        instrs = [
            WaitFlag(src_pipe=Pipe.V, dst_pipe=Pipe.M, event_id=0),
            SetFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=1),
            WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=1),
            SetFlag(src_pipe=Pipe.V, dst_pipe=Pipe.M, event_id=0),
        ]
        reports = _reports_all_schedulers(instrs, costs)
        expected = {
            channel_label(pack_channel(Pipe.V, Pipe.M, 0)),
            channel_label(pack_channel(Pipe.M, Pipe.V, 1)),
        }
        baseline = reports["drain"].guilty_channel_names
        assert set(baseline) == expected
        for name, report in reports.items():
            assert report.guilty_channel_names == baseline, name
            assert not report.never_set, name
            # Both pipes appear in the wait-for cycle, M first
            # (canonical rotation pivots on the lowest pipe id).
            assert report.cycle, name
            assert {str(p) for p in report.cycle} == {"M", "V"}, name
            assert str(report.cycle[0]) == "M", name
            assert "cycle" in report.describe(), name

    def test_self_wait(self, costs):
        """A pipe re-waits on a flag it already consumed itself.

        The ISA forbids same-pipe flags, so the tightest self-inflicted
        deadlock is one set feeding two waits on the same channel: the
        first wait drains the flag, the second starves — by the time the
        watchdog fires, no pending set remains for the channel.
        """
        instrs = [
            SetFlag(src_pipe=Pipe.V, dst_pipe=Pipe.M, event_id=2),
            WaitFlag(src_pipe=Pipe.V, dst_pipe=Pipe.M, event_id=2),
            WaitFlag(src_pipe=Pipe.V, dst_pipe=Pipe.M, event_id=2),
        ]
        reports = _reports_all_schedulers(instrs, costs)
        expected = channel_label(pack_channel(Pipe.V, Pipe.M, 2))
        baseline = reports["drain"].guilty_channel_names
        assert baseline == (expected,)
        for name, report in reports.items():
            assert report.guilty_channel_names == baseline, name
            assert expected in report.describe(), name
            assert report.never_set, name


class TestReportStructure:
    def test_stall_records_name_instruction_indices(self, costs):
        instrs = [
            ScalarInstr(op="prep", cycles=3),
            WaitFlag(src_pipe=Pipe.MTE2, dst_pipe=Pipe.M, event_id=0),
        ]
        reports = _reports_all_schedulers(instrs, costs)
        for name, report in reports.items():
            (stall,) = report.stalls
            assert str(stall.pipe) == "M", name
            assert stall.index == 1, name  # the WaitFlag's program index
            assert stall.never_set, name

    def test_producer_index_reported_when_set_exists(self, costs):
        instrs = [
            WaitFlag(src_pipe=Pipe.V, dst_pipe=Pipe.M, event_id=0),
            SetFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=1),
            WaitFlag(src_pipe=Pipe.M, dst_pipe=Pipe.V, event_id=1),
            SetFlag(src_pipe=Pipe.V, dst_pipe=Pipe.M, event_id=0),
        ]
        reports = _reports_all_schedulers(instrs, costs)
        for name, report in reports.items():
            by_pipe = {str(s.pipe): s for s in report.stalls}
            assert by_pipe["M"].producer_index == 3, name
            assert by_pipe["V"].producer_index == 1, name
            assert not any(s.never_set for s in report.stalls), name

    def test_not_flagged_injected_without_faults(self, costs):
        instrs = [WaitFlag(src_pipe=Pipe.MTE1, dst_pipe=Pipe.M, event_id=0)]
        for report in _reports_all_schedulers(instrs, costs).values():
            assert not report.injected
            assert "injected" not in report.describe()
