"""The per-request generator loop: the oracle the bulk draws are checked
against.

:func:`oracle_tenant_trace` is the traffic generator as it was before
:func:`repro.serving.traffic.request_draws` computed a tenant's draws in
one numpy pass: one ``np.random.default_rng([seed, key, index])`` per
request, three ``random()`` calls each, in the fixed order (gap,
prefill, decode).  It shares the tenant key, the weight normalization,
``_pick`` and ``Request`` with production; the draws are its own.
``tests/serving/test_traffic_equivalence.py`` asserts agreement.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.serving.request import Request
from repro.serving.traffic import (TenantSpec, _normalized, _pick,
                                   tenant_key)


def oracle_draws(seed: int, key: int, count: int) -> np.ndarray:
    """Row ``r``, column ``index``: the ``r``-th ``random()`` of
    ``default_rng([seed, key, index])``."""
    draws = np.empty((3, count))
    for index in range(count):
        rng = np.random.default_rng([seed, key, index])
        draws[:, index] = (rng.random(), rng.random(), rng.random())
    return draws


def oracle_tenant_trace(spec: TenantSpec, seed: int,
                        frequency_hz: float) -> List[Request]:
    key = tenant_key(spec.name)
    p_weights = _normalized(spec.name, spec.prefill_choices,
                            spec.prefill_weights)
    d_weights = _normalized(spec.name, spec.decode_choices,
                            spec.decode_weights)
    p_cum = tuple(np.cumsum(p_weights))
    d_cum = tuple(np.cumsum(d_weights))
    trace: List[Request] = []
    clock = 0
    for index in range(spec.requests):
        rng = np.random.default_rng([seed, key, index])
        u_gap = rng.random()
        u_prefill = rng.random()
        u_decode = rng.random()
        gap_s = -math.log1p(-u_gap) / spec.rate_rps
        clock += max(1, int(round(gap_s * frequency_hz)))
        trace.append(Request(
            tenant=spec.name,
            index=index,
            arrival_cycles=clock,
            prefill_tokens=_pick(spec.prefill_choices, p_cum, u_prefill),
            decode_tokens=_pick(spec.decode_choices, d_cum, u_decode),
        ))
    return trace
