"""The faults-off byte-identity gate.

With ``REPRO_FAULTS`` unset (or a plan that can never fire), every RAS
hook must collapse to a single ``None``/no-op check: cycle counts,
event timelines, and functional outputs are byte-identical to a build
without the reliability layer.  This is the acceptance gate that lets
the fault framework ship enabled-by-default-off.
"""

import numpy as np
import pytest

from repro.compiler import lower_gemm
from repro.compiler.lowering import GemmLayout
from repro.config import ASCEND_MAX
from repro.core import AscendCore, CostModel
from repro.core.engine import schedule
from repro.dtypes import FP16
from repro.isa import MemSpace, Program, Region
from repro.reliability import FaultPlan, clear_plan, fault_scope, \
    install_plan

from tests.core.oracle import schedule_fixpoint

pytestmark = pytest.mark.faults

_M, _K, _N = 96, 64, 48
_A_OFF, _B_OFF, _C_OFF = 0, 1 << 22, 1 << 23


def _run():
    """One functional GEMM: (total_cycles, event timeline, output bytes)."""
    core = AscendCore(ASCEND_MAX)
    rng = np.random.default_rng(1234)
    a = (rng.standard_normal((_M, _K)) * 0.3).astype(np.float16)
    b = (rng.standard_normal((_K, _N)) * 0.3).astype(np.float16)
    prog = lower_gemm(_M, _K, _N, ASCEND_MAX,
                      layout=GemmLayout(_A_OFF, _B_OFF, _C_OFF))
    core.memory.write(Region(MemSpace.GM, _A_OFF, (_M, _K), FP16), a)
    core.memory.write(Region(MemSpace.GM, _B_OFF, (_K, _N), FP16), b)
    result = core.run(prog)
    out = core.memory.read(Region(MemSpace.GM, _C_OFF, (_M, _N), FP16))
    timeline = tuple((int(e.start), int(e.end)) for e in result.trace.events)
    return result.cycles, timeline, out.tobytes()


def test_unset_env_noop_plan_and_cleared_plan_are_byte_identical(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    baseline = _run()

    # A plan whose probabilities are all zero can never fire.
    noop = FaultPlan(seed=99)
    assert noop.is_noop()
    with fault_scope(noop):
        assert _run() == baseline

    # install + clear returns to the exact pre-install behavior.
    install_plan(noop)
    clear_plan()
    assert _run() == baseline


def test_empty_env_value_is_off(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    baseline = _run()
    monkeypatch.setenv("REPRO_FAULTS", "")
    assert _run() == baseline


def test_schedulers_unaffected_by_noop_plan():
    prog = lower_gemm(_M, _K, _N, ASCEND_MAX)
    costs = CostModel(ASCEND_MAX)
    expected = {
        scheduler: scheduler(prog, costs).total_cycles
        for scheduler in (schedule, schedule_fixpoint)
    }
    with fault_scope(FaultPlan(seed=7)):
        for scheduler, cycles in expected.items():
            assert scheduler(prog, costs).total_cycles == cycles
