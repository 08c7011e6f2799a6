"""Bulk request draws against numpy's own per-request generators, and
the columnar trace against per-request scalar arithmetic.

:func:`repro.serving.traffic.request_draws` re-implements numpy's
``SeedSequence`` and ``PCG64`` as array arithmetic; the oracle in
``traffic_oracle.py`` builds one ``default_rng([seed, key, index])`` per
request with the installed numpy.  :func:`repro.serving.traffic.tenant_trace`
turns the draws into arrival cycles and lengths as columns; the oracle
does it per request (``round``, a running clock, a walk over the
cumulative edges).  Equality is exact (``==`` on float64 and on every
request), for the draws, the two column steps and whole traces: every
campaign digest rests on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.serving import TenantSpec, generate_trace, tenant_key, tenant_trace
from repro.serving.cli import default_tenants, smoke_spec
from repro.serving.traffic import (_gap_cycles, _normalized, _picks,
                                   request_draws)

from tests.serving.traffic_oracle import (gap_cycles, oracle_draws,
                                          oracle_tenant_trace, pick)

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


@st.composite
def length_distributions(draw):
    """1-6 token lengths in [1, 512], and either no weights (uniform) or
    one weight in [0, 10] per length, zeros likely, at least one
    positive."""
    choices = tuple(draw(st.lists(st.integers(1, 512), min_size=1,
                                  max_size=6)))
    if draw(st.booleans()):
        return choices, ()
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                            min_size=len(choices), max_size=len(choices)))
    weights[draw(st.integers(0, len(choices) - 1))] = draw(
        st.floats(0.0, 10.0, exclude_min=True))
    return choices, tuple(weights)


@given(name=st.sampled_from(TENANT_NAMES),
       seed=st.integers(0, 2 ** 70),
       requests=st.integers(1, 200),
       rate=st.one_of(st.floats(1e-3, 1e7),
                      st.floats(-3.0, 7.0).map(lambda e: 10.0 ** e)),
       # At 1 Hz and 1 kHz most gaps round below one cycle, so
       # max(1, ...) binds.
       frequency=st.sampled_from([1.0, 1e3, 7.5e8, 1.0e9, 1.5e9]),
       prefill=length_distributions(),
       decode=length_distributions())
@settings(max_examples=100, deadline=None)
def test_tenant_trace_matches_oracle_property(name, seed, requests, rate,
                                              frequency, prefill, decode):
    spec = TenantSpec(name=name, rate_rps=rate, requests=requests,
                      prefill_choices=prefill[0], prefill_weights=prefill[1],
                      decode_choices=decode[0], decode_weights=decode[1])
    assert (tenant_trace(spec, seed, frequency)
            == oracle_tenant_trace(spec, seed, frequency))


# (choices, weights): uniform, skewed, zero weights (repeated edges,
# one leading), one choice, six equal weights whose last edge is
# 0.9999999999999999 (the largest draw, which takes the last choice by
# the fallback), and weights whose last edge is 0.9999999999999997, so
# draws above it fall back too.
PICK_CASES = [
    ((32, 64, 128), ()),
    ((16, 128), (1.0, 3.0)),
    ((1, 2, 3, 4), (1.0, 0.0, 3.0, 0.0)),
    ((5, 6, 7), (0.0, 2.0, 2.0)),
    ((9,), ()),
    ((1, 2, 3, 4, 5, 6), ()),
    ((1, 2, 3, 4), (0.1, 1.0, 0.1, 0.1)),
]


@pytest.mark.parametrize("choices,weights", PICK_CASES)
def test_picks_match_the_scalar_walk(choices, weights):
    cumulative = np.cumsum(_normalized("t", choices, weights))
    edges = cumulative.tolist()
    draws = [0.0] + edges
    for edge in edges:
        draws += [np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    if edges[-1] < 1.0:
        # The largest draw request_draws makes: 1 - 2**-53.
        draws.append(np.nextafter(1.0, 0.0))
    got = _picks(choices, cumulative, np.array(draws, dtype=np.float64))
    assert got.tolist() == [pick(choices, tuple(cumulative), float(d))
                            for d in draws]


@pytest.mark.parametrize("weights,last_edge", [
    ((), 0.9999999999999999),
    ((0.1, 1.0, 0.1, 0.1, 0.1, 0.1), 0.9999999999999998)])
def test_edges_below_one_reach_the_fallback(weights, last_edge):
    choices = (1, 2, 3, 4, 5, 6)
    cumulative = np.cumsum(_normalized("t", choices, weights))
    assert cumulative[-1] == last_edge
    draw = np.nextafter(1.0, 0.0)
    assert pick(choices, tuple(cumulative), draw) == 6
    assert _picks(choices, cumulative, np.array([draw])).tolist() == [6]


GAPS = [0.0, 0.49999999999999994, 0.5, 1.5, 2.5, 3.5, 2 ** 51 + 0.5]


def test_gap_cycles_match_scalar_rounding():
    got = _gap_cycles(np.array(GAPS))
    assert got.dtype == np.int64
    assert got.tolist() == [gap_cycles(gap) for gap in GAPS]


@pytest.mark.parametrize("gaps", [[2.0 ** 62], [2.0 ** 61, 2.0 ** 61],
                                  [1.0, np.inf], [np.nan]])
def test_gap_cycles_refuse_a_clock_past_int64(gaps):
    with pytest.raises(ConfigError, match="arrival clock"):
        _gap_cycles(np.array(gaps))


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
