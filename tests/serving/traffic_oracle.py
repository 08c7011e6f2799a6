"""The per-request generator loop: the oracle the bulk draws and the
columnar trace are checked against.

:func:`oracle_tenant_trace` is the traffic generator as it was before
:func:`repro.serving.traffic.request_draws` computed a tenant's draws in
one numpy pass and :func:`repro.serving.traffic.tenant_trace` turned
them into arrivals and lengths as columns: one
``np.random.default_rng([seed, key, index])`` per request, three
``random()`` calls each, in the fixed order (gap, prefill, decode), then
scalar arithmetic per request (``math.log1p``, ``round``, a running
clock and :func:`pick`, a walk over the cumulative edges).  It shares
the tenant key, the weight normalization and ``Request`` with
production; the draws and the arithmetic are its own.
``tests/serving/test_traffic_equivalence.py`` asserts agreement.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.serving.request import Request
from repro.serving.traffic import TenantSpec, _normalized, tenant_key


def pick(choices: Sequence[int], cumulative: Sequence[float],
         draw: float) -> int:
    """The choice at the first cumulative edge above ``draw``, else the
    last choice."""
    for value, edge in zip(choices, cumulative):
        if draw < edge:
            return value
    return choices[-1]


def gap_cycles(gap: float) -> int:
    """One inter-arrival gap in cycles, rounded to an integer of at
    least one cycle."""
    return max(1, int(round(gap)))


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
        clock += gap_cycles(gap_s * frequency_hz)
        trace.append(Request(
            tenant=spec.name,
            index=index,
            arrival_cycles=clock,
            prefill_tokens=pick(spec.prefill_choices, p_cum, u_prefill),
            decode_tokens=pick(spec.decode_choices, d_cum, u_decode),
        ))
    return trace
