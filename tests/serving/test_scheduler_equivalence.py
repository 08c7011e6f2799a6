"""The event-driven serving loop against the per-step oracle.

Production (:class:`repro.serving.scheduler._Campaign`) advances each
run of uneventful decode steps in one go; the oracle
(:class:`tests.serving.oracle.PerStepCampaign`) takes one loop trip per
engine step.  Every campaign here runs through both on the same trace,
and they must agree on the report digest, every request's admitted,
first-token, finish and rejected cycles, the KV ledger peaks and the
step-cost bucket invocations.

:class:`EdgeCost` changes its decode price at every power-of-two batch
and context edge (context floor 16, capped at ``max_context``), so a
run advanced past a bucket edge shows up as a different clock.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.core_configs import core_config_by_name
from repro.config.soc_configs import soc_config_by_name
from repro.models.gpt import GPT_TINY
from repro.serving import Request, ServeSpec, StepCostModel, TenantSpec
from repro.serving.cli import default_tenants
from repro.serving.scheduler import _Campaign
from tests.serving.oracle import PerStepCampaign

CORE = core_config_by_name("ascend-mini")
SOC = soc_config_by_name("ascend-310")


def _pow2(value):
    return 1 << (value - 1).bit_length()


class EdgeCost:
    """Arithmetic step costs with a distinct decode price per
    (power-of-two batch, power-of-two context) bucket."""

    def __init__(self, max_context=GPT_TINY.max_context, decode_base=40_000):
        self.max_context = max_context
        self.decode_base = decode_base
        self.counts = {}

    def _context(self, context):
        return min(max(16, _pow2(max(1, context))), self.max_context)

    def _charge(self, key, steps):
        self.counts[key] = self.counts.get(key, 0) + steps

    def prefill_cycles(self, tokens):
        self._charge(("prefill", 1, tokens), 1)
        return 100 * tokens + 7

    def decode_cycles(self, batch, max_context, steps=1):
        b, c = _pow2(batch), self._context(max_context)
        self._charge(("decode", b, c), steps)
        return self.decode_base + 1_000 * b + 37 * c

    def decode_bucket_end(self, max_context):
        c = self._context(max_context)
        return None if c == self.max_context else c

    def invocations(self):
        return {f"{p}_b{b}_t{t}": n
                for (p, b, t), n in sorted(self.counts.items())}


def _spec(tenants, seed=0, policy="fcfs", max_batch=8, kv_fraction=0.0):
    return ServeSpec(model=GPT_TINY, core=CORE, soc=SOC,
                     tenants=tuple(tenants), seed=seed, policy=policy,
                     max_batch=max_batch, kv_fraction=kv_fraction)


def _stamps(campaign):
    return [(st.request.key, st.admitted_cycles, st.first_token_cycles,
             st.finish_cycles, st.rejected_cycles, st.decoded,
             st.kv_reserved_bytes, st.kv_resident_bytes)
            for st in campaign.finished + campaign.rejected]


def _compare(spec, mode, trace=None, cost_factory=EdgeCost):
    """Run production and the oracle on one trace and assert they agree.

    ``cost_factory`` makes each run's cost model; return one shared
    instance from it to price both runs from the same buckets.
    Returns the production campaign and the number of ``_step`` calls
    it made.
    """
    fast = _Campaign(spec, mode, cost_factory(), trace)
    per_step = fast._step
    calls = []

    def counted():
        calls.append(1)
        per_step()

    fast._step = counted
    fast.run()
    # A shared cost model's counts move on with the next run.
    fast_report = fast.report(with_manifest=False, with_counters=False)
    slow = PerStepCampaign(spec, mode, cost_factory(), trace)
    slow.run()
    slow_report = slow.report(with_manifest=False, with_counters=False)
    assert _stamps(fast) == _stamps(slow)
    assert fast.clock == slow.clock
    assert ((fast.ledger.peak_reserved, fast.ledger.peak_resident)
            == (slow.ledger.peak_reserved, slow.ledger.peak_resident))
    assert fast.ledger.total_reserved == fast.ledger.total_resident == 0
    assert fast_report.payload["steps"] == slow_report.payload["steps"]
    assert fast_report.payload == slow_report.payload
    assert fast_report.digest() == slow_report.digest()
    return fast, len(calls)


def _req(tenant, index, arrival, prefill, decode):
    return Request(tenant=tenant, index=index, arrival_cycles=arrival,
                   prefill_tokens=prefill, decode_tokens=decode)


SOLO = TenantSpec(name="a", rate_rps=1.0, requests=1)
# Step prices of EdgeCost() that the arrival case leans on.
PREFILL_17 = 100 * 17 + 7
DECODE_B1_T32 = 40_000 + 1_000 + 37 * 32


class TestPinnedCases:
    @pytest.mark.parametrize("mode", ["continuous", "static"])
    def test_single_token_decodes(self, mode):
        trace = [_req("a", 0, 0, 16, 1), _req("a", 1, 10, 16, 1),
                 _req("a", 2, 20_000, 16, 5), _req("a", 3, 20_001, 16, 1),
                 _req("a", 4, 500_000, 16, 1)]
        fast, _ = _compare(_spec([SOLO], max_batch=2), mode, trace)
        assert len(fast.finished) == 5

    def test_context_crosses_16_and_32(self):
        # Contexts 10..39: seven steps in the t16 bucket, sixteen in
        # t32, seven in t64.
        trace = [_req("a", 0, 0, 10, 30)]
        fast, steps = _compare(_spec([SOLO]), "continuous", trace)
        used = fast.report(with_manifest=False,
                           with_counters=False).payload["steps"]
        assert used["invocations"] == {
            "decode_b1_t16": 7, "decode_b1_t32": 16, "decode_b1_t64": 7,
            "prefill_b1_t10": 1}
        assert fast.iterations == 31 and steps < 10

    @pytest.mark.parametrize("max_context", [1024, 64, 48])
    def test_contexts_at_and_past_max_context(self, max_context):
        trace = [_req("a", 0, 0, 20, 40), _req("a", 1, 5, 500, 40),
                 _req("a", 2, 10, 1020, 10), _req("a", 3, 3_000_000, 40, 30)]
        for mode in ("continuous", "static"):
            _compare(_spec([SOLO], max_batch=2), mode, trace,
                     lambda: EdgeCost(max_context=max_context))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_arrival_on_a_step_boundary(self, offset):
        # Contexts 17..26 all price in the t32 bucket.
        landing = PREFILL_17 + 3 * DECODE_B1_T32
        trace = [_req("a", 0, 0, 17, 10),
                 _req("a", 1, landing + offset, 16, 4)]
        fast, _ = _compare(_spec([SOLO], max_batch=4), "continuous", trace)
        late = next(s for s in fast.finished if s.request.index == 1)
        steps_before = 3 if offset <= 0 else 4
        assert late.admitted_cycles == (PREFILL_17
                                        + steps_before * DECODE_B1_T32)

    def test_full_batch_with_arrivals_queued(self):
        trace = [_req("a", 0, 0, 16, 20), _req("a", 1, 0, 16, 25),
                 _req("a", 2, 50_000, 16, 5), _req("a", 3, 60_000, 32, 5),
                 _req("a", 4, 70_000, 16, 5)]
        fast, _ = _compare(_spec([SOLO], max_batch=2), "continuous", trace)
        first_finish = fast.finished[0].finish_cycles
        queued = [s for s in fast.finished if s.request.index >= 2]
        assert min(s.admitted_cycles for s in queued) == first_finish

    @pytest.mark.parametrize("mode", ["continuous", "static"])
    def test_kv_blocked_queue(self, mode):
        # 1,100 tokens each of a 2,688-token budget: two fit, the third
        # waits for a release with a batch slot free.
        trace = [_req("a", 0, 0, 1000, 100), _req("a", 1, 10, 1000, 100),
                 _req("a", 2, 20, 1000, 100), _req("a", 3, 5_000_000, 16, 8)]
        fast, _ = _compare(_spec([SOLO], max_batch=8), mode, trace)
        blocked = next(s for s in fast.finished if s.request.index == 2)
        release = min(s.finish_cycles for s in fast.finished
                      if s.request.index < 2)
        assert blocked.admitted_cycles == release

    @pytest.mark.parametrize("mode", ["continuous", "static"])
    def test_rejections(self, mode):
        # A 10% ceiling holds ~268 tokens: the 308-token requests can
        # never fit and are rejected while the others decode.
        capped = TenantSpec(name="a", rate_rps=1.0, requests=1,
                            kv_ceiling=0.1)
        trace = [_req("a", 0, 0, 16, 30), _req("a", 1, 100_000, 300, 8),
                 _req("a", 2, 150_000, 16, 30), _req("a", 3, 160_000, 300, 8)]
        fast, _ = _compare(_spec([capped], max_batch=4), mode, trace)
        assert len(fast.rejected) == 2 and len(fast.finished) == 2

    def test_rejection_frees_qos_budget(self):
        # Two never-fitting x requests win most of this round's QoS
        # budget and are rejected in it; y's request is over its share
        # this round and admitted in the next one, one step later.
        tenants = (TenantSpec(name="x", rate_rps=1.0, requests=1),
                   TenantSpec(name="y", rate_rps=1.0, requests=1))
        trace = [_req("y", 0, 0, 16, 200), _req("x", 0, 100_000, 2700, 10),
                 _req("x", 1, 100_000, 2700, 10),
                 _req("y", 1, 100_000, 1000, 100)]
        fast, _ = _compare(_spec(tenants, max_batch=8), "continuous", trace)
        assert [s.request.key for s in fast.rejected] == ["x/0", "x/1"]
        rejected_at = fast.rejected[0].rejected_cycles
        y1 = next(s for s in fast.finished if s.request.key == "y/1")
        assert rejected_at < y1.admitted_cycles < rejected_at + 50_000

    def test_static_batch_with_arrivals_during_it(self):
        trace = [_req("a", 0, 0, 16, 5), _req("a", 1, 0, 16, 20),
                 _req("a", 2, 0, 16, 40), _req("a", 3, 100_000, 16, 8),
                 _req("a", 4, 200_000, 64, 8), _req("a", 5, 300_000, 16, 8)]
        fast, _ = _compare(_spec([SOLO], max_batch=3), "static", trace)
        longest = next(s for s in fast.finished if s.request.index == 2)
        late = [s for s in fast.finished if s.request.index >= 3]
        assert all(s.admitted_cycles == longest.finish_cycles for s in late)

    def test_long_generation_takes_few_steps(self):
        # 1,200 decode steps; the loop runs only the eventful ones: the
        # prefill, the first step of each context bucket, the finish.
        trace = [_req("a", 0, 0, 16, 1200)]
        fast, steps = _compare(_spec([SOLO]), "static", trace)
        assert fast.iterations == 1201
        assert steps < 12


class TestRealStepCostModel:
    def test_small_gpt_tiny_campaign(self):
        cost = StepCostModel(GPT_TINY, CORE, use_predictor=False)
        spec = _spec(default_tenants(12, rate_scale=4.0), seed=5)
        for mode in ("continuous", "static"):
            fast, steps = _compare(spec, mode, cost_factory=lambda: cost)
            assert steps < fast.iterations


_tenant = st.builds(
    TenantSpec,
    name=st.sampled_from(["t0", "t1", "t2"]),
    rate_rps=st.floats(min_value=50.0, max_value=50_000.0),
    requests=st.integers(min_value=1, max_value=10),
    prefill_choices=st.sampled_from(
        [(1,), (16,), (15, 17), (31, 33), (120, 300), (1000, 1030)]),
    decode_choices=st.sampled_from(
        [(1,), (2, 3), (15, 17), (40,), (1, 64), (130,)]),
    slo_ms=st.floats(min_value=0.1, max_value=100.0),
    priority=st.integers(min_value=0, max_value=2),
    critical=st.booleans(),
    kv_floor=st.sampled_from([0.0, 0.1, 0.3]),
    kv_ceiling=st.sampled_from([0.3, 0.6, 1.0]),
)


class TestRandomCampaigns:
    @given(tenants=st.lists(_tenant, min_size=1, max_size=3,
                            unique_by=lambda t: t.name),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           mode=st.sampled_from(["continuous", "static"]),
           policy=st.sampled_from(["fcfs", "spf"]),
           max_batch=st.integers(min_value=1, max_value=32),
           kv_fraction=st.one_of(st.just(0.0),
                                 st.floats(min_value=0.0, max_value=0.5)),
           decode_base=st.sampled_from([3_000, 40_000, 400_000]),
           max_context=st.sampled_from([1024, 48]))
    @settings(max_examples=120, deadline=None)
    def test_matches_per_step_oracle(self, tenants, seed, mode, policy,
                                     max_batch, kv_fraction, decode_base,
                                     max_context):
        spec = _spec(tenants, seed=seed, policy=policy, max_batch=max_batch,
                     kv_fraction=kv_fraction)
        _compare(spec, mode, cost_factory=lambda: EdgeCost(
            max_context=max_context, decode_base=decode_base))
