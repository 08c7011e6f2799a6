"""Scheduling an arena-built program builds no instruction objects.

A trace is its program's arena in event order: the summary, the
counters, the Chrome export and the gantt all read columns.  Objects
exist only once a caller iterates ``events`` or asks for
``functional_instructions()``, and then they equal what scheduling the
same instructions as an object-built program gives.
"""

import pytest

from repro.analysis.gantt import render_gantt
from repro.compiler.lowering import lower_workload
from repro.config import core_config_by_name
from repro.core.costs import CostModel
from repro.core.engine import schedule
from repro.isa import Program
from repro.models import build_model
from repro.profiling import PerfCounters
from repro.profiling.chrome_trace import chrome_trace

_CONFIG = core_config_by_name("ascend-lite")
_COSTS = CostModel(_CONFIG)


def _column_readers(trace):
    return (trace.summary(), PerfCounters.from_trace(trace).to_dict(),
            chrome_trace(trace), render_gantt(trace, width=64))


@pytest.mark.parametrize("group", range(3))
def test_columns_only_until_rows_are_asked_for(group):
    _, work = list(build_model("gesture").grouped_workloads())[group]
    (program,) = lower_workload([work], _CONFIG)
    assert program._instructions is None
    assert program.arena._objects is None

    trace = schedule(program, _COSTS)
    read = _column_readers(trace)
    assert program._instructions is None
    assert program.arena._objects is None
    assert trace.arena._objects is None

    objects = Program(list(program.instructions), name=program.name)
    reference = schedule(objects, _COSTS)
    assert trace.events == reference.events
    assert trace.functional_instructions() \
        == reference.functional_instructions()
    assert read == _column_readers(reference)
