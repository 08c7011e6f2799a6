"""The per-step serving loop: the oracle the production loop is checked
against.

:class:`PerStepCampaign` runs one loop trip per engine step and walks
every running and queued request on every trip, the deliberately plain
loop :mod:`repro.serving.scheduler` started from.  It is
self-contained: its admission round (a full re-sort of the queue, QoS
demand summed from every queued request, ``try_reserve`` on each
request until the slots run out), its KV ledger (:class:`OracleLedger`,
the reservation arithmetic re-derived from the tenant shares on every
call), its per-request state (:class:`OracleState`) and its latency
summary are copies of the production code as it stood before the loop
kept aggregate batch state.  It shares with production only the trace
vocabulary (:class:`~repro.serving.request.Request`), the campaign spec,
the KV capacity sizing, the trace generator, the cost model and the
report payload schema, so an admission or ledger change in production
shows up as a disagreement.  Agreement on the digest, every request's
cycle stamps, the ledger peaks and the bucket invocations is what
tests/serving/test_scheduler_equivalence.py asserts.

Its progress guard, like production's, raises only on a trip that
changes nothing: a bound on the number of trips would also stop a
correct campaign with one long generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError, SchedulingError
from repro.profiling.manifest import RunManifest
from repro.serving.kvcache import KvCapacity
from repro.serving.request import Request
from repro.serving.scheduler import MODES, ServeReport, ServeSpec
from repro.serving.stepcost import StepCostModel
from repro.serving.traffic import TenantSpec, generate_trace
from repro.soc.qos import MpamPartition, QosArbiter, TrafficClass


def exact_percentile(values: Sequence[int], pct: float) -> int:
    if not values:
        raise SchedulingError("exact_percentile of an empty sample")
    if not 0 < pct <= 100:
        raise SchedulingError(f"percentile must lie in (0, 100], got {pct}")
    ordered = sorted(int(v) for v in values)
    rank = math.ceil(Fraction(pct) * len(ordered) / 100)
    return ordered[max(0, rank - 1)]


def latency_summary(cycles: Sequence[int]) -> Dict[str, int]:
    if not cycles:
        return {"count": 0, "p50": 0, "p90": 0, "p99": 0, "max": 0, "mean": 0}
    return {
        "count": len(cycles),
        "p50": exact_percentile(cycles, 50),
        "p90": exact_percentile(cycles, 90),
        "p99": exact_percentile(cycles, 99),
        "max": max(int(v) for v in cycles),
        "mean": sum(int(v) for v in cycles) // len(cycles),
    }


@dataclass
class OracleState:
    """Mutable per-request scheduling state, updated on every step."""

    request: Request
    admitted_cycles: Optional[int] = None
    prefilled: bool = False
    first_token_cycles: Optional[int] = None
    finish_cycles: Optional[int] = None
    rejected_cycles: Optional[int] = None
    decoded: int = 0
    kv_reserved_bytes: int = 0
    kv_resident_bytes: int = 0

    @property
    def context_tokens(self) -> int:
        if not self.prefilled:
            return 0
        return self.request.prefill_tokens + self.decoded

    def latency_cycles(self) -> int:
        if self.finish_cycles is None:
            raise SchedulingError(f"{self.request.key}: not finished")
        return self.finish_cycles - self.request.arrival_cycles

    def ttft_cycles(self) -> int:
        if self.first_token_cycles is None:
            raise SchedulingError(f"{self.request.key}: no first token")
        return self.first_token_cycles - self.request.arrival_cycles


def qos_arbiter_for(tenants: Sequence[TenantSpec],
                    capacity_bytes: int) -> QosArbiter:
    classes = [TrafficClass(name=t.name, priority=t.priority,
                            critical=t.critical) for t in tenants]
    partitions = [
        MpamPartition(traffic_class=t.name, min_share=t.kv_floor,
                      max_share=t.kv_ceiling)
        for t in tenants if t.kv_floor > 0 or t.kv_ceiling < 1
    ]
    return QosArbiter(total_bandwidth=float(capacity_bytes),
                      classes=classes, partitions=partitions)


class OracleLedger:
    """KV accounting that re-derives every share on every call."""

    def __init__(self, capacity: KvCapacity,
                 tenants: Sequence[TenantSpec]) -> None:
        self.capacity = capacity
        self.arbiter = qos_arbiter_for(tenants, capacity.total_bytes)
        self.reserved: Dict[str, int] = {t.name: 0 for t in tenants}
        self.resident: Dict[str, int] = {t.name: 0 for t in tenants}
        self.total_reserved = 0
        self.total_resident = 0
        self.peak_reserved = 0
        self.peak_resident = 0

    def _floor_bytes(self, name: str) -> int:
        part = self.arbiter.partitions.get(name)
        return int(part.min_share * self.capacity.total_bytes) if part else 0

    def _ceiling_bytes(self, name: str) -> int:
        part = self.arbiter.partitions.get(name)
        share = part.max_share if part else 1.0
        return int(share * self.capacity.total_bytes)

    def _available_to(self, name: str) -> int:
        if name not in self.reserved:
            raise SchedulingError(f"unknown tenant {name!r}")
        free = self.capacity.total_bytes - self.total_reserved
        held_floors = sum(
            max(0, self._floor_bytes(other) - used)
            for other, used in self.reserved.items() if other != name
        )
        tenant_room = self._ceiling_bytes(name) - self.reserved[name]
        return max(0, min(free - held_floors, tenant_room))

    def feasible_ever(self, name: str, nbytes: int) -> bool:
        if name not in self.reserved:
            raise SchedulingError(f"unknown tenant {name!r}")
        others_floors = sum(self._floor_bytes(o) for o in self.reserved
                            if o != name)
        room = min(self._ceiling_bytes(name),
                   self.capacity.total_bytes - others_floors)
        return nbytes <= room

    def try_reserve(self, name: str, nbytes: int) -> bool:
        if nbytes <= 0:
            raise SchedulingError(f"{name}: reservation must be positive")
        if nbytes > self._available_to(name):
            return False
        self.reserved[name] += nbytes
        self.total_reserved += nbytes
        self.peak_reserved = max(self.peak_reserved, self.total_reserved)
        self._check()
        return True

    def grow(self, name: str, nbytes: int) -> None:
        self.resident[name] += nbytes
        self.total_resident += nbytes
        if self.resident[name] > self.reserved[name]:
            raise SchedulingError(
                f"{name}: resident {self.resident[name]} B exceeds "
                f"reservation {self.reserved[name]} B")
        self.peak_resident = max(self.peak_resident, self.total_resident)
        self._check()

    def release(self, name: str, reserved_bytes: int,
                resident_bytes: int) -> None:
        if reserved_bytes > self.reserved.get(name, 0):
            raise SchedulingError(
                f"{name}: releasing {reserved_bytes} B, only "
                f"{self.reserved.get(name, 0)} B reserved")
        if resident_bytes > self.resident.get(name, 0):
            raise SchedulingError(
                f"{name}: releasing {resident_bytes} resident B, only "
                f"{self.resident.get(name, 0)} B resident")
        self.reserved[name] -= reserved_bytes
        self.resident[name] -= resident_bytes
        self.total_reserved -= reserved_bytes
        self.total_resident -= resident_bytes
        self._check()

    def _check(self) -> None:
        if self.total_resident > self.total_reserved:
            raise SchedulingError(
                f"KV ledger: resident {self.total_resident} B exceeds "
                f"reserved {self.total_reserved} B")
        if self.total_reserved > self.capacity.total_bytes:
            raise SchedulingError(
                f"KV ledger: reserved {self.total_reserved} B exceeds "
                f"capacity {self.capacity.total_bytes} B")


def _policy_key(policy: str):
    if policy == "spf":
        return lambda st: (st.request.prefill_tokens,
                           st.request.arrival_cycles,
                           st.request.tenant, st.request.index)
    return lambda st: (st.request.arrival_cycles, st.request.tenant,
                       st.request.index)


class PerStepCampaign:
    """One serving campaign, simulated one engine step per loop trip."""

    def __init__(self, spec: ServeSpec, mode: str, cost_model,
                 trace: Optional[Sequence[Request]]) -> None:
        if mode not in MODES:
            raise ConfigError(f"unknown serving mode {mode!r}; known: {MODES}")
        self.spec = spec
        self.mode = mode
        self.policy, self.max_batch, kv_fraction = (
            spec.policy, spec.max_batch, spec.kv_fraction)
        self.cost = cost_model if cost_model is not None else StepCostModel(
            spec.model, spec.core, dtype=spec.dtype)
        self.capacity = KvCapacity.for_design_point(
            spec.model, spec.core, spec.soc, kv_fraction, spec.dtype)
        self.ledger = OracleLedger(self.capacity, spec.tenants)
        self.trace = list(trace) if trace is not None else generate_trace(
            spec.tenants, spec.seed, spec.core.frequency_hz)
        self.bpt = self.capacity.bytes_per_token
        self.clock = 0
        self.pending: List[OracleState] = []
        self.running: List[OracleState] = []
        self.finished: List[OracleState] = []
        self.rejected: List[OracleState] = []
        self.static_width = 0
        self.iterations = 0
        self.prefill_steps = 0
        self.decode_steps = 0
        self._sort_key = _policy_key(self.policy)
        self._invocations_baseline = (dict(self.cost.invocations())
                                      if hasattr(self.cost, "invocations")
                                      else {})

    # -- admission ------------------------------------------------------------

    def _qos_budgets(self) -> Optional[Dict[str, float]]:
        demands: Dict[str, float] = {}
        for st in self.pending:
            need = float(st.request.kv_bytes(self.bpt))
            demands[st.request.tenant] = demands.get(st.request.tenant,
                                                     0.0) + need
        if len(demands) < 2:
            return None
        ordered = {name: demands[name] for name in sorted(demands)}
        return dict(self.ledger.arbiter.arbitrate(ordered).granted)

    def _admit(self) -> None:
        slots = self.max_batch - len(self.running)
        if slots <= 0 or not self.pending:
            return
        self.pending.sort(key=self._sort_key)
        budgets = self._qos_budgets()
        kept: List[OracleState] = []
        for st in self.pending:
            tenant = st.request.tenant
            need = st.request.kv_bytes(self.bpt)
            if slots <= 0:
                kept.append(st)
                continue
            if not self.ledger.feasible_ever(tenant, need):
                st.rejected_cycles = self.clock
                self.rejected.append(st)
                continue
            over_budget = (budgets is not None
                           and need > budgets.get(tenant, 0.0))
            if not over_budget and self.ledger.try_reserve(tenant, need):
                st.admitted_cycles = self.clock
                st.kv_reserved_bytes = need
                self.running.append(st)
                slots -= 1
                if budgets is not None:
                    budgets[tenant] = budgets.get(tenant, 0.0) - need
            else:
                kept.append(st)
        self.pending = kept
        # Progress guarantee: force the head-of-line feasible request
        # through the ledger when nothing runs.
        if not self.running and self.pending:
            for i, st in enumerate(self.pending):
                tenant = st.request.tenant
                need = st.request.kv_bytes(self.bpt)
                if self.ledger.try_reserve(tenant, need):
                    st.admitted_cycles = self.clock
                    st.kv_reserved_bytes = need
                    self.running.append(st)
                    del self.pending[i]
                    break

    # -- the engine loop ------------------------------------------------------

    def run(self) -> None:
        arrivals = self.trace
        cursor = 0
        offered = len(arrivals)
        while len(self.finished) + len(self.rejected) < offered:
            while (cursor < offered
                   and arrivals[cursor].arrival_cycles <= self.clock):
                self.pending.append(OracleState(arrivals[cursor]))
                cursor += 1
            if not self.running and not self.pending:
                # Idle: jump to the next arrival.
                self.clock = max(self.clock, arrivals[cursor].arrival_cycles)
                continue
            queued = len(self.pending)
            if self.mode == "continuous" or not self.running:
                self._admit()
                if self.mode == "static":
                    self.static_width = len(self.running)
            if not self.running:
                if len(self.pending) == queued:
                    raise SchedulingError(
                        "serving simulation failed to make progress "
                        f"({len(self.finished)} done, {len(self.rejected)} "
                        f"rejected of {offered})")
                # Everything pending was rejected this round; loop.
                continue
            self._step()

    def _step(self) -> None:
        self.iterations += 1
        prefilling = [st for st in self.running if not st.prefilled]
        decoding = [st for st in self.running if st.prefilled]
        step_cycles = 0
        if prefilling:
            total_tokens = sum(st.request.prefill_tokens for st in prefilling)
            step_cycles += self.cost.prefill_cycles(total_tokens)
            self.prefill_steps += 1
        if decoding:
            width = (self.static_width if self.mode == "static"
                     else len(decoding))
            max_context = max(st.context_tokens for st in decoding)
            step_cycles += self.cost.decode_cycles(max(width, len(decoding)),
                                                   max_context)
            self.decode_steps += 1
        if step_cycles <= 0:
            raise SchedulingError("engine step priced at zero cycles")
        self.clock += step_cycles
        for st in prefilling:
            st.prefilled = True
            grown = st.request.prefill_tokens * self.bpt
            st.kv_resident_bytes += grown
            self.ledger.grow(st.request.tenant, grown)
        still_running: List[OracleState] = []
        for st in self.running:
            if st in prefilling:
                still_running.append(st)
                continue
            st.decoded += 1
            st.kv_resident_bytes += self.bpt
            self.ledger.grow(st.request.tenant, self.bpt)
            if st.decoded == 1:
                st.first_token_cycles = self.clock
            if st.decoded >= st.request.decode_tokens:
                st.finish_cycles = self.clock
                self.ledger.release(st.request.tenant, st.kv_reserved_bytes,
                                    st.kv_resident_bytes)
                self.finished.append(st)
            else:
                still_running.append(st)
        self.running = still_running
        if self.mode == "static" and not self.running:
            self.static_width = 0

    # -- reporting ------------------------------------------------------------

    def report(self, with_manifest: bool = True,
               with_counters: bool = True) -> ServeReport:
        freq = self.spec.core.frequency_hz
        makespan_cycles = self.clock
        makespan_s = makespan_cycles / freq

        def _tenant_block(name: str) -> dict:
            spec = next(t for t in self.spec.tenants if t.name == name)
            done = [st for st in self.finished if st.request.tenant == name]
            rej = [st for st in self.rejected if st.request.tenant == name]
            latencies = [st.latency_cycles() for st in done]
            ttfts = [st.ttft_cycles() for st in done]
            slo = spec.slo_cycles(freq)
            met = sum(1 for lat in latencies if lat <= slo)
            terminal = len(done) + len(rej)
            tokens = sum(st.request.decode_tokens for st in done)
            return {
                "offered": sum(1 for r in self.trace if r.tenant == name),
                "completed": len(done),
                "rejected": len(rej),
                "slo_cycles": slo,
                "slo_met": met,
                "slo_attainment": (met / terminal) if terminal else 0.0,
                "latency": latency_summary(latencies),
                "ttft": latency_summary(ttfts),
                "goodput_rps": met / makespan_s if makespan_s else 0.0,
                "throughput_rps": (len(done) / makespan_s
                                   if makespan_s else 0.0),
                "generated_tokens": tokens,
                "tokens_per_s": tokens / makespan_s if makespan_s else 0.0,
            }

        names = sorted(t.name for t in self.spec.tenants)
        tenants = {name: _tenant_block(name) for name in names}
        all_lat = [st.latency_cycles() for st in self.finished]
        all_ttft = [st.ttft_cycles() for st in self.finished]
        total_met = sum(t["slo_met"] for t in tenants.values())
        total_tokens = sum(t["generated_tokens"] for t in tenants.values())
        terminal = len(self.finished) + len(self.rejected)
        aggregate = {
            "offered": len(self.trace),
            "completed": len(self.finished),
            "rejected": len(self.rejected),
            "slo_met": total_met,
            "slo_attainment": (total_met / terminal) if terminal else 0.0,
            "latency": latency_summary(all_lat),
            "ttft": latency_summary(all_ttft),
            "goodput_rps": total_met / makespan_s if makespan_s else 0.0,
            "throughput_rps": (len(self.finished) / makespan_s
                               if makespan_s else 0.0),
            "generated_tokens": total_tokens,
            "tokens_per_s": total_tokens / makespan_s if makespan_s else 0.0,
        }
        steps = {
            "iterations": self.iterations,
            "prefill_steps": self.prefill_steps,
            "decode_steps": self.decode_steps,
        }
        if hasattr(self.cost, "invocations"):
            baseline = self._invocations_baseline
            used = {label: count - baseline.get(label, 0)
                    for label, count in self.cost.invocations().items()
                    if count - baseline.get(label, 0) > 0}
            steps["distinct_buckets"] = len(used)
            steps["invocations"] = used
        payload: Dict[str, object] = {
            "schema": 1,
            "mode": self.mode,
            "policy": self.policy,
            "seed": self.spec.seed,
            "model": self.spec.model.name,
            "core": self.spec.core.name,
            "soc": self.spec.soc.name,
            "max_batch": self.max_batch,
            "cost_tier": ("predicted"
                          if getattr(self.cost, "use_predictor", False)
                          else "simulated"),
            "makespan_cycles": makespan_cycles,
            "makespan_s": makespan_s,
            "kv": {
                "bytes_per_token": self.capacity.bytes_per_token,
                "onchip_bytes": self.capacity.onchip_bytes,
                "gm_bytes": self.capacity.gm_bytes,
                "weight_bytes": self.capacity.weight_bytes,
                "total_bytes": self.capacity.total_bytes,
                "token_capacity": self.capacity.token_capacity,
                "peak_reserved_bytes": self.ledger.peak_reserved,
                "peak_resident_bytes": self.ledger.peak_resident,
            },
            "steps": steps,
            "tenants": tenants,
            "aggregate": aggregate,
        }
        counters = None
        if with_counters and hasattr(self.cost, "aggregate_counters"):
            if hasattr(self.cost, "invocations"):
                counters = self.cost.aggregate_counters(
                    self._invocations_baseline)
            else:
                counters = self.cost.aggregate_counters()
        manifest = None
        if with_manifest:
            manifest = RunManifest.collect(
                model=self.spec.model.name,
                config=f"{self.spec.core.name}/{self.spec.soc.name}",
                extras={"mode": self.mode, "policy": self.policy,
                        "seed": self.spec.seed,
                        "tenants": names,
                        "offered": len(self.trace)},
            )
        return ServeReport(payload=payload, counters=counters,
                           manifest=manifest)
