"""Open-loop seeded traffic generator.

Arrivals are *open loop*: the trace is fixed by ``(seed, tenant specs)``
before the simulator runs, and does not react to completions — the
property that lets the same offered load compare two schedulers fairly
(and lets an overloaded design point show its real queueing collapse
rather than a throttled one).

Determinism contract (same construction as
:mod:`repro.reliability.chaos` uses per-(seed, job, attempt)): every
request's randomness comes from a fresh generator derived from
``(seed, tenant_key(name), request_index)``, with a fixed draw order
(inter-arrival gap, prefill length, decode length).  Tenant keys hash
the tenant *name*, not its position in the spec list, so adding,
removing, or reordering tenants never perturbs another tenant's trace —
tenant A's requests are byte-identical with and without tenant B in the
campaign.

The draws are exactly those of
``np.random.default_rng([seed, key, index]).random()`` called three
times, but :func:`request_draws` computes a whole tenant's at once: it
runs numpy's ``SeedSequence`` mixing and ``PCG64`` seeding and stepping
as vectorized integer arithmetic instead of building a generator per
request.  ``tests/serving/traffic_oracle.py`` keeps the per-request
generator loop, and ``tests/serving/test_traffic_equivalence.py`` holds
the two equal against the installed numpy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import repeat
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from .request import Request

__all__ = ["TenantSpec", "tenant_key", "generate_trace", "tenant_trace"]


def _normalized(name: str, choices: Sequence[int],
                weights: Sequence[float]) -> Tuple[float, ...]:
    if not choices:
        raise ConfigError(f"tenant {name}: empty length distribution")
    if any(c < 1 for c in choices):
        raise ConfigError(f"tenant {name}: token lengths must be >= 1")
    if weights and len(weights) != len(choices):
        raise ConfigError(
            f"tenant {name}: {len(weights)} weights for "
            f"{len(choices)} choices")
    raw = tuple(weights) if weights else tuple(1.0 for _ in choices)
    if any(w < 0 for w in raw) or sum(raw) <= 0:
        raise ConfigError(f"tenant {name}: weights must be >= 0, sum > 0")
    total = float(sum(raw))
    return tuple(w / total for w in raw)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's offered load, QoS class, and SLO.

    ``kv_floor``/``kv_ceiling`` are MPAM shares of the KV capacity
    (the :class:`~repro.soc.qos.MpamPartition` knobs): the floor is
    reserved for this tenant even under another tenant's flood, the
    ceiling caps how much of the cache it can monopolize.
    """

    name: str
    rate_rps: float                 # mean arrival rate (Poisson process)
    requests: int                   # offered request count
    prefill_choices: Tuple[int, ...] = (32, 64, 128)
    prefill_weights: Tuple[float, ...] = ()
    decode_choices: Tuple[int, ...] = (8, 16, 32, 64)
    decode_weights: Tuple[float, ...] = ()
    slo_ms: float = 500.0           # end-to-end latency deadline
    priority: int = 0               # QoS weight (higher wins contention)
    critical: bool = False
    kv_floor: float = 0.0
    kv_ceiling: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if self.rate_rps <= 0:
            raise ConfigError(f"tenant {self.name}: rate must be positive")
        if self.requests < 1:
            raise ConfigError(f"tenant {self.name}: needs >= 1 request")
        if self.slo_ms <= 0:
            raise ConfigError(f"tenant {self.name}: SLO must be positive")
        if not 0 <= self.kv_floor <= self.kv_ceiling <= 1:
            raise ConfigError(
                f"tenant {self.name}: bad KV shares floor={self.kv_floor} "
                f"ceiling={self.kv_ceiling}")
        _normalized(self.name, self.prefill_choices, self.prefill_weights)
        _normalized(self.name, self.decode_choices, self.decode_weights)

    def slo_cycles(self, frequency_hz: float) -> int:
        return max(1, int(round(self.slo_ms * 1e-3 * frequency_hz)))


def tenant_key(name: str) -> int:
    """Stable 63-bit integer identity for a tenant name.

    sha256-based so it is identical across processes and platforms
    (``hash()`` is salted per process) and independent of the tenant's
    position in the campaign spec.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def checked_seed(seed: int) -> int:
    """``seed`` as an int, or :class:`ConfigError` unless it is a
    non-negative integer (what numpy's ``SeedSequence`` accepts)."""
    if not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return int(seed)


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 constants.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG_MULT_LIMBS = tuple((_PCG_MULT >> (32 * i)) & _MASK32 for i in range(4))


def _uint32_words(value: int) -> List[int]:
    """``value`` as numpy's ``_coerce_to_uint32_array`` splits it:
    little-endian 32-bit words, and one zero word for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_sequence_state(entropy: List[np.ndarray]) -> List[np.ndarray]:
    """``SeedSequence(entropy).generate_state(8, np.uint32)``, column-wise:
    ``entropy`` is a list of uint32 word arrays, one element per seed."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        state.append(value ^ (value >> 16))
    return state


def _carried(columns: List[np.ndarray]) -> List[np.ndarray]:
    """Propagate carries through 32-bit limbs (least significant first),
    dropping the one out of the top limb: arithmetic mod 2**128."""
    limbs = []
    carry = 0
    for column in columns:
        column = column + carry
        limbs.append(column & _MASK32)
        carry = column >> 32
    return limbs


def _pcg_step(state: List[np.ndarray],
              inc: List[np.ndarray]) -> List[np.ndarray]:
    """One PCG64 step, ``state * multiplier + inc`` mod 2**128, on four
    32-bit limbs held in uint64 arrays.  A column sums at most seven
    32-bit halves of limb products, the increment limb and a carry, so
    it never overflows 64 bits."""
    columns = list(inc)
    for i, limb in enumerate(state):
        for j, factor in enumerate(_PCG_MULT_LIMBS[:4 - i]):
            product = limb * factor
            columns[i + j] = columns[i + j] + (product & _MASK32)
            if i + j < 3:
                columns[i + j + 1] = columns[i + j + 1] + (product >> 32)
    return _carried(columns)


def request_draws(seed: int, key: int, count: int) -> np.ndarray:
    """The three uniforms of requests ``0..count-1``: row ``r``, column
    ``index`` is the ``r``-th ``random()`` of
    ``np.random.default_rng([seed, key, index])``, bit for bit.

    Every request's entropy is the words of ``seed``, of ``key`` and of
    its index, so all requests are one ``SeedSequence`` pass over
    word arrays, then PCG64's seeding (``state = (inc + initstate) *
    mult + inc`` with ``inc = 2 * initseq + 1``), three steps, and its
    XSL-RR output as ``(x >> 11) * 2**-53``.
    """
    seed = checked_seed(seed)
    if count > 1 << 32:
        raise ConfigError(f"{count} requests: indices past 2**32 do not "
                          "fit one entropy word")
    entropy = [np.full(count, word, dtype=np.uint32)
               for word in _uint32_words(seed) + _uint32_words(key)]
    entropy.append(np.arange(count, dtype=np.uint32))
    words = [word.astype(np.uint64)
             for word in _seed_sequence_state(entropy)]
    # generate_state(4, uint64) pairs the words little-endian; PCG64
    # takes (seed high, seed low, initseq high, initseq low).
    initstate = [words[2], words[3], words[0], words[1]]
    initseq = [words[6], words[7], words[4], words[5]]
    inc = _carried([2 * initseq[0] + 1] + [2 * limb for limb in initseq[1:]])
    state = _pcg_step(_carried([a + b for a, b in zip(inc, initstate)]),
                      inc)
    draws = np.empty((3, count))
    for row in draws:
        state = _pcg_step(state, inc)
        folded = (state[3] ^ state[1]) << 32 | (state[2] ^ state[0])
        rotation = state[3] >> 26
        output = folded >> rotation | folded << ((64 - rotation) & 63)
        row[:] = (output >> 11) * (1.0 / 9007199254740992.0)
    return draws


def _picks(choices: Sequence[int], cumulative: np.ndarray,
           draws: np.ndarray) -> np.ndarray:
    """For each draw, the choice at the first cumulative edge above it,
    or the last choice when no edge is (the edges of float weights may
    end just below 1.0).  ``searchsorted(..., side="right")`` finds the
    first ``edge`` with ``draw < edge``, the test of a scalar walk over
    the edges."""
    index = np.searchsorted(cumulative, draws, side="right")
    return np.asarray(choices)[np.minimum(index, len(choices) - 1)]


def _gap_cycles(gaps: np.ndarray) -> np.ndarray:
    """``max(1, int(round(gap)))`` of every inter-arrival gap in cycles,
    as int64: ``np.rint`` rounds half to even, as ``round`` does.

    Gaps that sum to 2**62 cycles or more (or are not finite) raise
    :class:`ConfigError`, so the arrival clock's int64 running sum
    cannot overflow.
    """
    cycles = np.maximum(1.0, np.rint(gaps))
    total = float(cycles.sum())
    if not total < 2.0 ** 62:
        raise ConfigError(f"inter-arrival gaps total {total!r} cycles; "
                          "the arrival clock must stay below 2**62")
    return cycles.astype(np.int64)


def tenant_trace(spec: TenantSpec, seed: int,
                 frequency_hz: float) -> List[Request]:
    """Generate one tenant's request trace on the device clock.

    Each request consumes exactly three draws from its own
    ``default_rng([seed, tenant_key, index])`` stream, in fixed order:
    exponential inter-arrival gap, prefill length, decode length
    (computed for all requests at once by :func:`request_draws`).
    Everything after the draws is column arithmetic, except
    ``math.log1p``: numpy's ``log1p`` is not guaranteed to round as
    libm's does, and one ulp can move an arrival cycle.  The division
    and the product are the same IEEE operations as scalar ones.
    """
    p_weights = _normalized(spec.name, spec.prefill_choices,
                            spec.prefill_weights)
    d_weights = _normalized(spec.name, spec.decode_choices,
                            spec.decode_weights)
    u_gap, u_prefill, u_decode = request_draws(
        seed, tenant_key(spec.name), spec.requests)
    log_gaps = np.array([math.log1p(-u) for u in u_gap.tolist()])
    gaps = -log_gaps / spec.rate_rps * frequency_hz
    arrivals = np.cumsum(_gap_cycles(gaps))
    prefill = _picks(spec.prefill_choices, np.cumsum(p_weights), u_prefill)
    decode = _picks(spec.decode_choices, np.cumsum(d_weights), u_decode)
    return list(map(Request, repeat(spec.name), range(spec.requests),
                    arrivals.tolist(), prefill.tolist(), decode.tolist()))


def generate_trace(tenants: Sequence[TenantSpec], seed: int,
                   frequency_hz: float) -> List[Request]:
    """The merged campaign trace, sorted by (arrival, tenant, index).

    The sort key is fully deterministic (ties broken by tenant name then
    index), so the merged order never depends on spec-list order.
    """
    checked_seed(seed)
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate tenant names: {sorted(names)}")
    merged: List[Request] = []
    for spec in tenants:
        merged.extend(tenant_trace(spec, seed, frequency_hz))
    merged.sort(key=lambda r: (r.arrival_cycles, r.tenant, r.index))
    return merged
