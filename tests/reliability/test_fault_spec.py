"""REPRO_FAULTS spec parsing and campaign determinism."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.reliability import (
    FaultInjector,
    FaultPlan,
    MemBitFault,
    StallFault,
    SyncFault,
    active_injector,
    fault_scope,
    install_plan,
    parse_fault_spec,
)

pytestmark = pytest.mark.faults


class TestSpecParsing:
    def test_full_spec_round_trip(self):
        plan = parse_fault_spec(
            "seed=42;membit:space=UB,p=1e-4,bits=2,ecc=1;"
            "sync:action=reorder,p=0.05;stall:pipe=MTE2,factor=4,p=0.1;"
            "chip:mtbf_hours=1000;cache:p=1")
        assert plan.seed == 42
        assert plan.memory == (MemBitFault(space="UB", probability=1e-4,
                                           bits=2, ecc=True),)
        assert plan.sync == (SyncFault(action="reorder", probability=0.05),)
        assert plan.stall == (StallFault(pipe="MTE2", factor=4.0,
                                         probability=0.1),)
        assert plan.chip.mtbf_hours == 1000
        assert plan.cache.probability == 1.0
        assert not plan.is_noop()

    def test_defaults(self):
        plan = parse_fault_spec("membit:")
        assert plan.memory == (MemBitFault(),)
        assert plan.seed == 0
        assert plan.is_noop()  # probability defaults to 0

    @pytest.mark.parametrize("spec", [
        "gremlin:p=1",                 # unknown kind
        "membit:p=nope",               # non-numeric probability
        "membit:p=2",                  # probability out of range
        "membit:bits=3",               # only 1 or 2 bit flips
        "membit:frobnicate=1",         # unknown parameter
        "sync:action=scramble",        # unknown action
        "stall:factor=0.5",            # slowdowns only
        "seed=xyz",                    # non-integer seed
        "just-some-words",             # no kind: prefix
    ])
    def test_bad_specs_raise_config_error_naming_variable(self, spec):
        with pytest.raises(ConfigError, match="REPRO_FAULTS"):
            parse_fault_spec(spec)

    def test_removed_arena_kind_rejected(self):
        # Lowering has one emitter and no fallback left to exercise.
        with pytest.raises(ConfigError,
                           match="unknown fault kind 'arena'") as err:
            parse_fault_spec("arena:p=1")
        assert "membit/sync/stall/chip/cache" in str(err.value)

    def test_env_sourced_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=7;stall:p=0.5")
        inj = active_injector()
        assert inj is not None
        assert inj.plan.seed == 7
        # Same spec value -> same cached injector (RNG state persists).
        assert active_injector() is inj

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=7;stall:p=0.5")
        mine = install_plan(FaultPlan(seed=1))
        assert active_injector() is mine

    def test_fault_scope_restores(self):
        assert active_injector() is None
        with fault_scope(FaultPlan(seed=3)) as inj:
            assert active_injector() is inj
        assert active_injector() is None


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        plan = parse_fault_spec("seed=11;membit:p=0.5")
        a, b = FaultInjector(plan), FaultInjector(plan)
        decisions_a = [a.memory_fault("UB") is not None for _ in range(64)]
        decisions_b = [b.memory_fault("UB") is not None for _ in range(64)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_different_seed_different_decisions(self):
        base = parse_fault_spec("seed=11;membit:p=0.5")
        other = parse_fault_spec("seed=12;membit:p=0.5")
        a, b = FaultInjector(base), FaultInjector(other)
        assert [a.memory_fault("UB") is not None for _ in range(64)] \
            != [b.memory_fault("UB") is not None for _ in range(64)]

    def test_chip_failure_times_deterministic(self):
        plan = parse_fault_spec("seed=5;chip:mtbf_hours=10")
        t1 = FaultInjector(plan).chip_failure_times(64, 3600.0)
        t2 = FaultInjector(plan).chip_failure_times(64, 3600.0)
        assert np.array_equal(t1, t2)
        assert t1.size > 0
        assert (t1 < 3600.0).all()
