"""Step-cost model: pow2 bucketing, memoization, counter aggregation.

Uses a deliberately tiny GPT config so each bucket compiles in
milliseconds; the assertions are about the bucketing/memo/accounting
machinery, not about absolute cycle numbers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.core_configs import core_config_by_name
from repro.errors import ConfigError
from repro.models.gpt import GptConfig
from repro.serving import StepCostModel, bucket_pow2

CORE = core_config_by_name("ascend-mini")
TINY = GptConfig(name="gpt-test", hidden=64, layers=2, heads=2,
                 intermediate=128, vocab_size=512, max_context=128)


@pytest.fixture(scope="module")
def cost():
    return StepCostModel(TINY, CORE, use_predictor=False)


class TestBucketPow2:
    @pytest.mark.parametrize("value,expected", [
        (1, 1), (2, 2), (3, 4), (5, 8), (8, 8), (9, 16), (1000, 1024)])
    def test_rounds_up_to_power_of_two(self, value, expected):
        assert bucket_pow2(value) == expected

    def test_minimum_floor(self):
        assert bucket_pow2(3, minimum=16) == 16

    def test_maximum_cap(self):
        assert bucket_pow2(1000, maximum=128) == 128

    def test_non_positive_raises(self):
        with pytest.raises(ConfigError):
            bucket_pow2(0)


class TestMemoization:
    def test_same_bucket_compiles_once(self, cost):
        before = cost.distinct_buckets
        a = cost.decode_cycles(batch=3, max_context=50)
        b = cost.decode_cycles(batch=4, max_context=33)  # same (4, 64)
        assert a == b
        assert cost.distinct_buckets == before + 1
        assert cost.invocations()["decode_b4_t64"] >= 2

    def test_costs_are_positive_and_grow_with_batch(self, cost):
        small = cost.decode_cycles(batch=1, max_context=16)
        large = cost.decode_cycles(batch=16, max_context=16)
        assert 0 < small < large

    def test_prefill_grows_with_tokens(self, cost):
        assert (cost.prefill_cycles(16)
                < cost.prefill_cycles(64)
                < cost.prefill_cycles(128))


class TestDecodeRuns:
    @pytest.mark.parametrize("context,end", [
        (1, 16), (16, 16), (17, 32), (33, 64), (64, 64), (65, None),
        (TINY.max_context, None), (500, None)])
    def test_bucket_end(self, cost, context, end):
        # TINY.max_context is 128: from context 65 on every decode step
        # prices in the capped t128 bucket.
        assert cost.decode_bucket_end(context) == end

    def test_contexts_up_to_the_end_share_a_price(self, cost):
        end = cost.decode_bucket_end(40)
        assert (cost.decode_cycles(2, 40) == cost.decode_cycles(2, end)
                != cost.decode_cycles(2, end + 1))

    def test_steps_charge_invocations(self, cost):
        one = cost.decode_cycles(8, 100)
        before = cost.invocations()["decode_b8_t128"]
        assert cost.decode_cycles(8, 100, steps=0) == one
        assert cost.invocations()["decode_b8_t128"] == before
        assert cost.decode_cycles(8, 100, steps=5) == one
        assert cost.invocations()["decode_b8_t128"] == before + 5
        with pytest.raises(ConfigError):
            cost.decode_cycles(8, 100, steps=-1)


class TestDecodeLookup:
    """``decode_cycles`` memoizes by the raw (batch, max_context) it is
    asked for; it must price and charge as bucketing every call does."""

    @given(calls=st.lists(st.tuples(st.integers(1, 40),
                                    st.integers(-2, 300),
                                    st.integers(0, 5)), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_charges_match_bucketing_every_call(self, calls):
        cost = StepCostModel(TINY, CORE, use_predictor=False)
        cost._compile = lambda phase, batch, tokens: (
            1000 * batch + tokens, None)
        expected = {}
        for batch, context, steps in calls:
            b = bucket_pow2(batch)
            t = bucket_pow2(max(1, context), StepCostModel.MIN_TOKEN_BUCKET,
                            TINY.max_context)
            assert cost.decode_cycles(batch, context, steps) == 1000 * b + t
            label = f"decode_b{b}_t{t}"
            expected[label] = expected.get(label, 0) + steps
        assert cost.invocations() == expected

    def test_a_bad_batch_is_refused_on_every_call(self, cost):
        for _ in range(2):
            with pytest.raises(ConfigError, match="decode batch of 0"):
                cost.decode_cycles(0, 16)


class TestPrefillChunking:
    def test_tokens_beyond_max_context_chunk(self, cost):
        cap = TINY.max_context
        chunked = cost.prefill_cycles(2 * cap + 5)
        assert chunked == 2 * cost.prefill_cycles(cap) \
            + cost.prefill_cycles(5)

    def test_prompt_below_the_cap_charges_no_capped_bucket(self):
        cost = StepCostModel(TINY, CORE, use_predictor=False)
        cost.prefill_cycles(40)
        assert cost.invocations() == {"prefill_b1_t64": 1}
        assert cost.distinct_buckets == 1

    def test_each_full_chunk_charges_one_capped_invocation(self):
        cap = TINY.max_context
        reference = StepCostModel(TINY, CORE, use_predictor=False)
        price_cap = reference.prefill_cycles(cap)
        price_rem = reference.prefill_cycles(5)    # the t16 bucket
        cost = StepCostModel(TINY, CORE, use_predictor=False)
        assert cost.prefill_cycles(2 * cap + 5) == 2 * price_cap + price_rem
        assert cost.invocations() == {"prefill_b1_t128": 2,
                                      "prefill_b1_t16": 1}
        # The counters scale with the chunks charged, not with the calls.
        single = StepCostModel(TINY, CORE, use_predictor=False)
        single.prefill_cycles(cap)
        single.prefill_cycles(cap)
        single.prefill_cycles(5)
        assert (cost.aggregate_counters().to_dict()
                == single.aggregate_counters().to_dict())

    def test_small_prompts_share_the_floor_bucket(self, cost):
        assert cost.prefill_cycles(3) == cost.prefill_cycles(16)

    def test_non_positive_inputs_raise(self, cost):
        with pytest.raises(ConfigError):
            cost.prefill_cycles(0)
        with pytest.raises(ConfigError):
            cost.decode_cycles(0, 16)


class TestCounterAggregation:
    def test_counters_scale_with_invocations(self):
        cost = StepCostModel(TINY, CORE, use_predictor=False)
        cost.decode_cycles(2, 16)
        once = cost.aggregate_counters()
        cost.decode_cycles(2, 16)
        twice = cost.aggregate_counters()
        assert twice.total_cycles == 2 * once.total_cycles
        assert twice.gm_read_bytes == 2 * once.gm_read_bytes

    def test_since_scopes_to_one_campaign(self):
        cost = StepCostModel(TINY, CORE, use_predictor=False)
        cost.decode_cycles(2, 16)
        snapshot = dict(cost.invocations())
        cost.decode_cycles(2, 16)
        cost.prefill_cycles(16)
        delta = cost.aggregate_counters(since=snapshot)
        full = cost.aggregate_counters()
        assert 0 < delta.total_cycles < full.total_cycles

    def test_decode_caches_count_as_gm_traffic(self):
        """The per-layer K/V caches are graph *inputs* to the decode
        graph, so growing the context grows the step's memory traffic —
        decode is memory-bound in the model, as on hardware."""
        cost = StepCostModel(TINY, CORE, use_predictor=False)
        cost.decode_cycles(1, 16)
        small = cost.aggregate_counters()
        cost2 = StepCostModel(TINY, CORE, use_predictor=False)
        cost2.decode_cycles(1, TINY.max_context)
        large = cost2.aggregate_counters()
        assert large.gm_read_bytes > small.gm_read_bytes


class TestPredictorTier:
    def test_missing_artifact_raises_config_error(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.setenv("REPRO_PREDICT_MODEL",
                           str(tmp_path / "nope.json"))
        with pytest.raises(ConfigError):
            StepCostModel(TINY, CORE, use_predictor=True)
