"""KV-cache residency: capacity math and ledger invariants.

The hypothesis suites pin the two properties the serving layer is built
on: resident KV bytes can never exceed reserved bytes can never exceed
capacity (under any interleaving of reserve/grow/release), and MPAM
floors/ceilings are honored byte-exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.core_configs import core_config_by_name
from repro.config.soc_configs import soc_config_by_name
from repro.dtypes import FP16
from repro.errors import SchedulingError
from repro.models.gpt import GPT_TINY, GptConfig
from repro.serving import KvCapacity, KvLedger, TenantSpec, qos_arbiter_for

CORE = core_config_by_name("ascend-mini")
SOC = soc_config_by_name("ascend-310")

A = TenantSpec(name="a", rate_rps=1.0, requests=1, kv_floor=0.3)
B = TenantSpec(name="b", rate_rps=1.0, requests=1, kv_ceiling=0.6)


def _capacity(total=1000):
    return KvCapacity(model="t", onchip_bytes=total, gm_bytes=0,
                      weight_bytes=0, bytes_per_token=1)


class TestKvCapacity:
    def test_design_point_budget(self):
        cap = KvCapacity.for_design_point(GPT_TINY, CORE, SOC,
                                          kv_fraction=0.0)
        onchip = SOC.llc_bytes + sum(
            n * (c.l1_bytes + c.ub_bytes) for c, n in SOC.core_groups)
        assert cap.onchip_bytes == onchip
        assert cap.gm_bytes == 0
        assert cap.bytes_per_token == GPT_TINY.kv_bytes_per_token(FP16)
        assert cap.bytes_per_token == 2 * GPT_TINY.layers * GPT_TINY.hidden \
            * FP16.bytes
        assert cap.token_capacity == onchip // cap.bytes_per_token

    def test_kv_fraction_scales_post_weight_dram(self):
        half = KvCapacity.for_design_point(GPT_TINY, CORE, SOC, 0.5)
        full = KvCapacity.for_design_point(GPT_TINY, CORE, SOC, 1.0)
        weights = int(GPT_TINY.param_count() * FP16.bytes)
        assert full.gm_bytes == SOC.dram_bytes - weights
        assert half.gm_bytes == (SOC.dram_bytes - weights) // 2
        assert half.weight_bytes == weights

    def test_bad_fraction_raises(self):
        with pytest.raises(SchedulingError, match="kv_fraction"):
            KvCapacity.for_design_point(GPT_TINY, CORE, SOC, 1.5)

    def test_model_too_big_for_a_single_token_raises(self):
        # A model whose single-token KV outweighs the whole budget must
        # fail loudly at capacity-sizing time, not deep in a campaign.
        giant = GptConfig(name="giant", hidden=8192, layers=4096,
                          heads=64, intermediate=8192)
        with pytest.raises(SchedulingError, match="holds no tokens"):
            KvCapacity.for_design_point(giant, CORE, SOC, 0.0)


class TestQosWiring:
    def test_partitions_built_from_tenant_shares(self):
        arbiter = qos_arbiter_for((A, B), 1000)
        assert arbiter.partitions["a"].min_share == pytest.approx(0.3)
        assert arbiter.partitions["b"].max_share == pytest.approx(0.6)

    def test_floor_sum_over_100_percent_rejected(self):
        heavy = (TenantSpec(name="x", rate_rps=1, requests=1, kv_floor=0.7),
                 TenantSpec(name="y", rate_rps=1, requests=1, kv_floor=0.6))
        with pytest.raises(Exception):
            qos_arbiter_for(heavy, 1000)


class TestLedgerBasics:
    def test_floor_reserved_from_other_tenants(self):
        ledger = KvLedger(_capacity(1000), (A, B))
        # b may take at most 600 (its ceiling), and never a's 300 floor.
        assert not ledger.try_reserve("b", 701)
        assert not ledger.try_reserve("b", 601)
        assert ledger.try_reserve("b", 600)
        # a's floor is still there for it.
        assert ledger.try_reserve("a", 300)

    def test_feasible_ever_matches_idle_admission(self):
        ledger = KvLedger(_capacity(1000), (A, B))
        assert ledger.feasible_ever("b", 600)
        assert not ledger.feasible_ever("b", 601)   # ceiling
        assert ledger.feasible_ever("a", 700)       # all but nothing held
        assert ledger.try_reserve("a", 700)

    def test_resident_cannot_exceed_reservation(self):
        ledger = KvLedger(_capacity(1000), (A, B))
        assert ledger.try_reserve("a", 100)
        ledger.grow_all({"a": 100})
        with pytest.raises(SchedulingError, match="exceeds"):
            ledger.grow_all({"a": 1})

    def test_release_restores_space(self):
        ledger = KvLedger(_capacity(1000), (A, B))
        assert ledger.try_reserve("b", 600)
        assert not ledger.try_reserve("b", 1)
        ledger.release("b", 600, 0)
        assert ledger.try_reserve("b", 600)
        assert ledger.in_flight == 1

    def test_unknown_tenant_raises(self):
        ledger = KvLedger(_capacity(1000), (A, B))
        with pytest.raises(SchedulingError, match="unknown tenant"):
            ledger.try_reserve("ghost", 1)


_op = st.tuples(
    st.sampled_from(["reserve", "grow", "release"]),
    st.sampled_from(["a", "b"]),
    st.integers(min_value=1, max_value=400),
)


class TestLedgerProperties:
    @given(st.lists(_op, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_reserved_never_exceeds_capacity(self, ops):
        """Under any interleaving, the invariant chain holds:
        resident <= reserved <= capacity, the running totals equal the
        per-tenant sums, and the conservation counter
        admitted - released == live reservations."""
        capacity = _capacity(1000)
        ledger = KvLedger(capacity, (A, B))
        live = {"a": [], "b": []}  # (reserved, grown) per admission
        for kind, tenant, amount in ops:
            if kind == "reserve":
                if ledger.try_reserve(tenant, amount):
                    live[tenant].append([amount, 0])
            elif kind == "grow" and live[tenant]:
                slot = live[tenant][0]
                room = slot[0] - slot[1]
                if room > 0:
                    grown = min(amount, room)
                    ledger.grow_all({tenant: grown})
                    slot[1] += grown
            elif kind == "release" and live[tenant]:
                reserved, grown = live[tenant].pop(0)
                ledger.release(tenant, reserved, grown)
            total_reserved = sum(ledger.reserved.values())
            total_resident = sum(ledger.resident.values())
            assert ledger.total_reserved == total_reserved
            assert ledger.total_resident == total_resident
            for name in ("a", "b"):
                assert ledger.resident[name] <= ledger.reserved[name]
            assert total_resident <= total_reserved
            assert total_reserved <= capacity.total_bytes
            assert ledger.peak_reserved <= capacity.total_bytes
            assert ledger.peak_resident <= ledger.peak_reserved
            assert ledger.in_flight == sum(len(v) for v in live.values())

    @given(st.lists(_op, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_ceiling_and_floor_byte_exact(self, ops):
        capacity = _capacity(1000)
        ledger = KvLedger(capacity, (A, B))
        live = {"a": [], "b": []}
        for kind, tenant, amount in ops:
            if kind == "reserve":
                if ledger.try_reserve(tenant, amount):
                    live[tenant].append(amount)
            elif kind == "release" and live[tenant]:
                ledger.release(tenant, live[tenant].pop(0), 0)
            # b's ceiling: 60% of 1000.
            assert ledger.reserved["b"] <= 600
            # a's floor: whatever happens, a can still get to 300.
            usable_by_a = ledger.reserved["a"] + ledger._available_to("a")
            assert usable_by_a >= 300
