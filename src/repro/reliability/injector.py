"""The deterministic fault injector and its process-global registration.

One :class:`FaultInjector` owns a seeded ``numpy`` generator and a set of
counters; every RAS hook in the stack (scratchpad reads, the engine
drain, the compile cache, the cluster model) asks the *active* injector
whether to perturb the operation at hand.  With no
plan installed and ``REPRO_FAULTS`` unset, :func:`active_injector`
returns ``None`` from one dict probe — the hooks then fall through to
the exact pre-existing code paths, keeping cycles, traces, and
functional outputs byte-identical to a build without this module.

Determinism: all randomness flows through the plan's seed, so a given
(plan, workload) pair injects the same faults at the same sites on every
run — a failing fault campaign is replayable from its spec string.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

import numpy as np

from .faults import FaultPlan, MemBitFault, StallFault, SyncFault, \
    parse_fault_spec

__all__ = [
    "FaultInjector",
    "install_plan",
    "clear_plan",
    "active_injector",
    "fault_scope",
]

_ENV = "REPRO_FAULTS"


class FaultInjector:
    """Applies a :class:`~repro.reliability.faults.FaultPlan` at run time.

    The injector is the single source of randomness for a campaign; the
    ``counters`` dict records every decision so tests (and the smoke
    suite) can assert that each injected fault was corrected, detected,
    or recovered rather than silently lost.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self.counters: Dict[str, int] = {
            "mem_injected": 0,      # bit-flip events injected
            "ecc_corrected": 0,     # single-bit, SECDED corrected
            "ecc_detected": 0,      # double-bit, raised as EccError
            "mem_corrupted": 0,     # ECC off: data silently corrupted
            "sync_dropped": 0,
            "sync_duplicated": 0,
            "sync_reordered": 0,
            "stall_injected": 0,    # instructions slowed down
            "cache_corrupted": 0,   # artifacts garbled after store
        }

    # -- memory (scratchpad bit flips, filtered by the SECDED model) -----------

    def memory_fault(self, pad_name: str) -> Optional[MemBitFault]:
        """The fault model firing on this scratchpad read, if any."""
        for fault in self.plan.memory:
            if fault.probability > 0 and fault.matches(pad_name) \
                    and self.rng.random() < fault.probability:
                self.counters["mem_injected"] += 1
                return fault
        return None

    # -- sync (flag-channel set events) ----------------------------------------

    def sync_action(self, packed_channel: int) -> Optional[str]:
        """drop/dup/reorder for one retiring ``set_flag``, or None."""
        for fault in self.plan.sync:
            if fault.probability > 0 and fault.matches(packed_channel) \
                    and self.rng.random() < fault.probability:
                self.counters[f"sync_{_SYNC_COUNTER[fault.action]}"] += 1
                return fault.action
        return None

    def has_sync_faults(self) -> bool:
        return any(f.probability > 0 for f in self.plan.sync)

    def perturb_matches(self, match: np.ndarray, packed: np.ndarray,
                        set_rows: np.ndarray) -> np.ndarray:
        """Apply :meth:`sync_action` to every set row of a drain.

        The drain resolves waits through a *static* wait->set matching,
        so sync faults perturb the match column up front: a
        dropped set makes its matched wait stall forever (-2, the
        never-set marker); a reorder swaps the producers of adjacent
        waits on the same channel; a duplicate is timing-neutral under
        static matching (the extra flag has no consumer) and is only
        counted.  Returns a perturbed copy; the input is never mutated.
        """
        out = match.copy()
        dropped = []
        for row in set_rows.tolist():
            action = self.sync_action(int(packed[row]))
            if action == "drop":
                dropped.append(row)
            elif action == "reorder":
                waits = np.nonzero(out == row)[0]
                if waits.size:
                    w = int(waits[0])
                    # swap producers with the next wait on this channel
                    later = np.nonzero(
                        (packed == packed[w]) & (np.arange(len(out)) > w)
                        & (out >= 0))[0]
                    if later.size:
                        w2 = int(later[0])
                        out[w], out[w2] = out[w2], out[w]
        if dropped:
            out[np.isin(out, dropped)] = -2
        return out

    # -- stalls (pipe slowdowns through the cost model) ------------------------

    def has_stall_faults(self) -> bool:
        return any(f.probability > 0 for f in self.plan.stall)

    def scale_costs(self, cost: np.ndarray, pipe: np.ndarray) -> np.ndarray:
        """Per-instruction cost column with stall faults applied (a copy)."""
        from ..isa.pipes import Pipe

        out = np.asarray(cost, np.int64).copy()
        for fault in self.plan.stall:
            if fault.probability <= 0:
                continue
            if fault.pipe == "*":
                eligible = np.ones(out.size, bool)
            else:
                eligible = pipe == int(Pipe[fault.pipe])
            hit = eligible & (self.rng.random(out.size) < fault.probability)
            count = int(hit.sum())
            if count:
                self.counters["stall_injected"] += count
                out[hit] = np.maximum(
                    (out[hit] * fault.factor).astype(np.int64), out[hit] + 1)
        return out

    # -- compiler-tier faults --------------------------------------------------

    def should_corrupt_cache(self) -> bool:
        fault = self.plan.cache
        if fault is None or fault.probability <= 0:
            return False
        if self.rng.random() < fault.probability:
            self.counters["cache_corrupted"] += 1
            return True
        return False

    # -- cluster (chip failures) -----------------------------------------------

    def chip_failure_times(self, chips: int,
                           horizon_seconds: float) -> np.ndarray:
        """Seeded exponential failure times (s) within the horizon."""
        fault = self.plan.chip
        if fault is None or chips <= 0:
            return np.empty(0, np.float64)
        rate = chips / (fault.mtbf_hours * 3600.0)
        times, t = [], 0.0
        while True:
            t += self.rng.exponential(1.0 / rate)
            if t >= horizon_seconds:
                break
            times.append(t)
        return np.asarray(times, np.float64)

    def stats(self) -> Dict[str, int]:
        return dict(self.counters)


_SYNC_COUNTER = {"drop": "dropped", "dup": "duplicated",
                 "reorder": "reordered"}

# -- process-global plan registration -----------------------------------------

_ACTIVE: Optional[FaultInjector] = None
# (spec string, injector) parsed from REPRO_FAULTS, cached per value.
_ENV_CACHE: tuple = (None, None)


def install_plan(plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` as the process-wide active campaign."""
    global _ACTIVE
    _ACTIVE = FaultInjector(plan)
    return _ACTIVE


def clear_plan() -> None:
    """Remove the active campaign (environment plans are re-read)."""
    global _ACTIVE, _ENV_CACHE
    _ACTIVE = None
    _ENV_CACHE = (None, None)


def active_injector() -> Optional[FaultInjector]:
    """The active injector, or None when fault injection is off.

    A programmatically installed plan wins over ``REPRO_FAULTS``; the
    environment spec is parsed once per distinct value.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    spec = os.environ.get(_ENV)
    if not spec:
        return None
    global _ENV_CACHE
    cached_spec, cached = _ENV_CACHE
    if cached_spec != spec:
        cached = FaultInjector(parse_fault_spec(spec))
        _ENV_CACHE = (spec, cached)
    return cached


@contextmanager
def fault_scope(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Context manager: install ``plan`` for the duration of the block."""
    global _ACTIVE
    previous = _ACTIVE
    injector = install_plan(plan)
    try:
        yield injector
    finally:
        _ACTIVE = previous
