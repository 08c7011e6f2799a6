"""Seeded traffic generator: determinism and tenant isolation.

The load-bearing property is the per-(seed, tenant, request) RNG stream
derivation: one tenant's trace must be *byte-identical* whether or not
any other tenant shares the campaign, and must survive tenant-list
reordering — the same contract ``repro.reliability.chaos`` gives
per-(seed, job, attempt) fault decisions.
"""

import pytest

from repro.errors import ConfigError
from repro.serving import (TenantSpec, generate_trace, tenant_key,
                           tenant_trace)

FREQ = 1.0e9  # ascend-mini's clock; any fixed frequency works

ALPHA = TenantSpec(name="alpha", rate_rps=100.0, requests=5,
                   prefill_choices=(32, 64), decode_choices=(4, 8))
BETA = TenantSpec(name="beta", rate_rps=250.0, requests=7,
                  prefill_choices=(16, 128), decode_choices=(8, 32))

# Regression pin: tenant "alpha", seed 0, 0.75 GHz — these exact
# (arrival_cycles, prefill, decode) tuples are the determinism contract.
# If this test breaks, every pinned campaign digest breaks with it.
ALPHA_SEED0_TRACE = (
    (0, 1410882, 64, 8),
    (1, 21225520, 64, 4),
    (2, 21528996, 32, 8),
    (3, 29254126, 32, 8),
    (4, 32176870, 64, 8),
)


class TestDeterminism:
    def test_pinned_trace(self):
        trace = tenant_trace(ALPHA, seed=0, frequency_hz=FREQ)
        got = tuple((r.index, r.arrival_cycles, r.prefill_tokens,
                     r.decode_tokens) for r in trace)
        assert got == ALPHA_SEED0_TRACE

    def test_same_seed_identical(self):
        assert (tenant_trace(ALPHA, 3, FREQ)
                == tenant_trace(ALPHA, 3, FREQ))

    def test_different_seed_differs(self):
        a = tenant_trace(ALPHA, 0, FREQ)
        b = tenant_trace(ALPHA, 1, FREQ)
        assert [r.arrival_cycles for r in a] != [r.arrival_cycles for r in b]

    def test_arrivals_strictly_increase(self):
        trace = tenant_trace(BETA, 0, FREQ)
        arrivals = [r.arrival_cycles for r in trace]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))


class TestTenantIsolation:
    def test_alpha_identical_with_and_without_beta(self):
        alone = tenant_trace(ALPHA, seed=0, frequency_hz=FREQ)
        mixed = generate_trace((ALPHA, BETA), seed=0, frequency_hz=FREQ)
        alpha_in_mix = [r for r in mixed if r.tenant == "alpha"]
        alpha_in_mix.sort(key=lambda r: r.index)
        assert alpha_in_mix == alone

    def test_merge_order_independent_of_spec_order(self):
        assert (generate_trace((ALPHA, BETA), 0, FREQ)
                == generate_trace((BETA, ALPHA), 0, FREQ))

    def test_tenant_key_stable_and_distinct(self):
        # sha256-derived, so the value is a cross-process constant.
        assert tenant_key("alpha") == tenant_key("alpha")
        assert tenant_key("alpha") != tenant_key("beta")
        assert 0 <= tenant_key("alpha") < 2 ** 63


class TestValidation:
    @pytest.mark.parametrize("seed", [-1, -(2 ** 64), 1.5, "0"])
    def test_bad_seed_raises(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            tenant_trace(ALPHA, seed, FREQ)
        with pytest.raises(ConfigError, match="seed"):
            generate_trace((ALPHA, BETA), seed, FREQ)

    def test_duplicate_tenant_names_raise(self):
        dup = TenantSpec(name="alpha", rate_rps=1.0, requests=1)
        with pytest.raises(ConfigError, match="duplicate"):
            generate_trace((ALPHA, dup), 0, FREQ)

    @pytest.mark.parametrize("kwargs", [
        dict(name=""),
        dict(rate_rps=0.0),
        dict(rate_rps=-1.0),
        dict(requests=0),
        dict(slo_ms=0.0),
        dict(kv_floor=-0.1),
        dict(kv_floor=0.8, kv_ceiling=0.5),
        dict(kv_ceiling=1.5),
        dict(prefill_choices=()),
        dict(prefill_choices=(0, 4)),
        dict(decode_choices=(8,), decode_weights=(1.0, 2.0)),
        dict(decode_choices=(8, 16), decode_weights=(-1.0, 2.0)),
    ])
    def test_bad_spec_raises(self, kwargs):
        base = dict(name="t", rate_rps=10.0, requests=3)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            TenantSpec(**base)

    def test_weighted_lengths_come_from_choices(self):
        spec = TenantSpec(name="w", rate_rps=50.0, requests=64,
                          prefill_choices=(8, 16), prefill_weights=(1, 3),
                          decode_choices=(2,))
        trace = tenant_trace(spec, 0, FREQ)
        assert {r.prefill_tokens for r in trace} <= {8, 16}
        assert {r.decode_tokens for r in trace} == {2}
