"""Bulk request draws against numpy's own per-request generators.

:func:`repro.serving.traffic.request_draws` re-implements numpy's
``SeedSequence`` and ``PCG64`` as array arithmetic; the oracle in
``traffic_oracle.py`` builds one ``default_rng([seed, key, index])`` per
request with the installed numpy.  Equality is exact (``==`` on
float64), for the draws and for whole traces: every campaign digest
rests on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import TenantSpec, generate_trace, tenant_key, tenant_trace
from repro.serving.cli import default_tenants, smoke_spec
from repro.serving.traffic import request_draws

from tests.serving.traffic_oracle import oracle_draws, oracle_tenant_trace

# 0 is one zero word; 2**32 - 1 the largest one-word seed; 2**32 the
# smallest two-word one; 2**64 + 3 takes three words.
SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3)
# Tenant keys of one word (below 2**32) and of two.
KEYS = (0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, tenant_key("chat"))
# Every tenant name that perfbench, the serve smoke and the tests use.
TENANT_NAMES = ("chat", "batch", "alpha", "beta", "a", "b", "x", "y", "t",
                "w", "t0", "t1", "t2", "capped", "flood", "vip", "long",
                "short")
# perfbench's serve pool: seeds 0-3, default_tenants(1000), Ascend 310.
PERFBENCH_SEEDS = range(4)


def _same(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", KEYS)
def test_draws_match_numpy(seed, key):
    _same(request_draws(seed, key, 64), oracle_draws(seed, key, 64))


@pytest.mark.parametrize("name", TENANT_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_numpy_for_every_tenant_name(name, seed):
    key = tenant_key(name)
    _same(request_draws(seed, key, 16), oracle_draws(seed, key, 16))


@pytest.mark.parametrize("count", [1, 2, 1000])
def test_draws_match_numpy_at_every_count(count):
    key = tenant_key("batch")
    _same(request_draws(3, key, count), oracle_draws(3, key, count))


@given(seed=st.one_of(st.integers(0, 2 ** 32 + 8),
                      st.integers(0, 2 ** 100)),
       key=st.one_of(st.integers(0, 2 ** 32 + 8),
                     st.integers(0, 2 ** 63 - 1),
                     st.sampled_from(TENANT_NAMES).map(tenant_key)),
       count=st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_draws_match_numpy_property(seed, key, count):
    _same(request_draws(seed, key, count), oracle_draws(seed, key, count))


@given(name=st.sampled_from(TENANT_NAMES),
       seed=st.integers(0, 2 ** 70),
       requests=st.integers(1, 30),
       rate=st.floats(1.0, 1e5),
       frequency=st.sampled_from([7.5e8, 1.0e9, 1.5e9]))
@settings(max_examples=60, deadline=None)
def test_tenant_trace_matches_oracle_property(name, seed, requests, rate,
                                              frequency):
    spec = TenantSpec(name=name, rate_rps=rate, requests=requests,
                      prefill_choices=(16, 128), prefill_weights=(1.0, 3.0))
    assert (tenant_trace(spec, seed, frequency)
            == oracle_tenant_trace(spec, seed, frequency))


def _oracle_campaign(tenants, seed, frequency):
    merged = [request for spec in tenants
              for request in oracle_tenant_trace(spec, seed, frequency)]
    merged.sort(key=lambda r: (r.arrival_cycles, r.tenant, r.index))
    return merged


@pytest.mark.parametrize("seed", PERFBENCH_SEEDS)
def test_perfbench_campaign_traces(seed):
    from repro.config.soc_configs import soc_config_by_name

    core = soc_config_by_name("ascend-310").core_groups[0][0]
    tenants = default_tenants(1000)
    assert (generate_trace(tenants, seed, core.frequency_hz)
            == _oracle_campaign(tenants, seed, core.frequency_hz))


def test_smoke_campaign_trace():
    spec = smoke_spec()
    frequency = spec.core.frequency_hz
    assert (generate_trace(spec.tenants, spec.seed, frequency)
            == _oracle_campaign(spec.tenants, spec.seed, frequency))
