"""Iteration-level serving schedulers over the compiled cost model.

Two batching disciplines over the *same* offered trace:

* **continuous** (Orca-style iteration-level scheduling): admission runs
  at every engine iteration — a request that finishes its generation
  frees its batch slot and KV reservation immediately, and a queued
  request can join mid-flight.  Admission order is the configured policy
  (FCFS or shortest-prefill-first), per-tenant contention is arbitrated
  through the MPAM/QoS machinery (floors, ceilings, priorities), and
  the KV ledger is the hard capacity gate.
* **static** (the classic baseline): requests are admitted only at batch
  boundaries; the whole batch then runs to the *longest* member's
  completion, with every decode step priced at the full admitted batch
  width — finished requests pad the batch, which is exactly the goodput
  loss continuous batching removes.

The loop is event-driven.  Most engine steps are uneventful: every
running request decodes one more token at the same (batch, context)
bucket.  When admission changed nothing and every running request is
decoding, :meth:`_Campaign._advance` works out how many steps come
before the next event and runs them in one go.  The next event is the
first of:

* a request finishing;
* the longest context leaving its decode bucket;
* in continuous mode with a free batch slot, the step at whose end the
  next arrival has landed.

Nothing else can change an admission outcome between events.  The queue
changes only on an arrival, reserved KV bytes only on an admission or a
release, and free slots only on an admission or a finish; the QoS
arbitration is a pure function of the queue; a static batch admits only
when it is empty.  Resident KV only grows between events, so the ledger
checked at the end of a run of steps has held at every step in it.
Eventful steps (a prefill joining, a finish, an admission, a bucket
change) run one at a time through :meth:`_Campaign._step`, so finish
order, ledger peaks and every report field match a step-by-step run
(``tests/serving/oracle.py`` is that run; the equivalence suite
compares the two).

A cost model (:class:`~repro.serving.stepcost.StepCostModel`, or a
duck-typed stand-in) provides:

* ``prefill_cycles(tokens)``: cycles of one prefill step;
* ``decode_cycles(batch, max_context, steps=1)``: cycles of one decode
  step, charging ``steps`` of them to the bucket (0 prices only);
* ``decode_bucket_end(max_context)``: the longest context priced the
  same as ``max_context``, or ``None`` if every longer one is;
* optionally ``invocations()`` and ``aggregate_counters(since)`` for the
  report's bucket counts and campaign counters.

The simulator is a pure function of (trace, spec, cost model): integer
cycle arithmetic end to end, tenants iterated in sorted order, no
wall-clock — two runs of the same campaign produce byte-identical
reports (``ServeReport.digest()`` pins this in CI).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config.core_configs import CoreConfig
from ..config.soc_configs import SocConfig
from ..dtypes import DType, FP16
from ..errors import ConfigError, SchedulingError
from ..models.gpt import GptConfig
from ..profiling.counters import PerfCounters
from ..profiling.manifest import RunManifest
from .kvcache import KvCapacity, KvLedger
from .metrics import latency_summary
from .request import Request, RequestState
from .settings import (POLICIES, serve_kv_fraction, serve_max_batch,
                       serve_policy)
from .stepcost import StepCostModel
from .traffic import TenantSpec, checked_seed, generate_trace

__all__ = ["ServeSpec", "ServeReport", "simulate_serving", "MODES"]

MODES = ("continuous", "static")


@dataclass(frozen=True)
class ServeSpec:
    """One serving campaign: model x design point x tenants x knobs.

    ``policy`` / ``max_batch`` / ``kv_fraction`` default to the
    ``REPRO_SERVE_*`` environment knobs when left ``None``.
    """

    model: GptConfig
    core: CoreConfig
    soc: SocConfig
    tenants: Tuple[TenantSpec, ...]
    seed: int = 0
    policy: Optional[str] = None
    max_batch: Optional[int] = None
    kv_fraction: Optional[float] = None
    dtype: DType = FP16

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigError("a serving campaign needs at least one tenant")
        checked_seed(self.seed)
        if self.policy is not None and self.policy not in POLICIES:
            raise ConfigError(
                f"unknown policy {self.policy!r}; known: {POLICIES}")
        if self.max_batch is not None and self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")

    def resolved(self) -> Tuple[str, int, float]:
        return (
            self.policy if self.policy is not None else serve_policy(),
            self.max_batch if self.max_batch is not None
            else serve_max_batch(),
            self.kv_fraction if self.kv_fraction is not None
            else serve_kv_fraction(),
        )


@dataclass
class ServeReport:
    """Outcome of one campaign, ready for artifacts and CI gates."""

    payload: Dict[str, object]
    counters: Optional[PerfCounters] = None
    manifest: Optional[RunManifest] = None

    def to_dict(self) -> dict:
        out = dict(self.payload)
        if self.counters is not None:
            out["counters"] = self.counters.to_dict()
        if self.manifest is not None:
            out["manifest"] = self.manifest.to_dict()
        return out

    def digest(self) -> str:
        """sha256 over the deterministic metrics payload.

        The manifest (git state, platform, cache hit counts) and the
        counters are provenance, not results — two byte-identical
        campaigns on different machines share a digest.
        """
        canonical = json.dumps(self.payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # Convenience accessors for gates/tests.
    @property
    def aggregate(self) -> dict:
        return self.payload["aggregate"]  # type: ignore[return-value]

    @property
    def tenants(self) -> dict:
        return self.payload["tenants"]  # type: ignore[return-value]

    def goodput_rps(self) -> float:
        return float(self.aggregate["goodput_rps"])


def _policy_key(policy: str):
    if policy == "spf":
        return lambda st: (st.request.prefill_tokens,
                           st.request.arrival_cycles,
                           st.request.tenant, st.request.index)
    return lambda st: (st.request.arrival_cycles, st.request.tenant,
                       st.request.index)


class _Campaign:
    """One simulation run; see :func:`simulate_serving`."""

    def __init__(self, spec: ServeSpec, mode: str, cost_model,
                 trace: Optional[Sequence[Request]]) -> None:
        if mode not in MODES:
            raise ConfigError(f"unknown serving mode {mode!r}; known: {MODES}")
        self.spec = spec
        self.mode = mode
        self.policy, self.max_batch, kv_fraction = spec.resolved()
        self.cost = cost_model if cost_model is not None else StepCostModel(
            spec.model, spec.core, dtype=spec.dtype)
        self.capacity = KvCapacity.for_design_point(
            spec.model, spec.core, spec.soc, kv_fraction, spec.dtype)
        self.ledger = KvLedger(self.capacity, spec.tenants)
        self.trace = list(trace) if trace is not None else generate_trace(
            spec.tenants, spec.seed, spec.core.frequency_hz)
        self.bpt = self.capacity.bytes_per_token
        self.clock = 0
        self.pending: List[RequestState] = []
        self.running: List[RequestState] = []
        self.finished: List[RequestState] = []
        self.rejected: List[RequestState] = []
        self.static_width = 0
        self.iterations = 0
        self.prefill_steps = 0
        self.decode_steps = 0
        self._sort_key = _policy_key(self.policy)
        # The cost model may be shared across campaigns (so continuous
        # and static price from the same compiled buckets); invocation
        # accounting in the report must still be per-campaign.
        self._invocations_baseline = (dict(self.cost.invocations())
                                      if hasattr(self.cost, "invocations")
                                      else {})

    # -- admission ------------------------------------------------------------

    def _qos_budgets(self) -> Optional[Dict[str, float]]:
        """Per-tenant byte budgets for this admission round.

        With two or more tenants contending, the round's budgets come
        from one MPAM arbitration over the KV capacity: floors first,
        then priority-weighted proportional shares up to each ceiling —
        soc.qos semantics, applied to cache bytes instead of DRAM
        bandwidth.  A single demanding tenant needs no arbitration.
        """
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
        kept: List[RequestState] = []
        for st in self.pending:
            tenant = st.request.tenant
            need = st.request.kv_bytes(self.bpt)
            if slots <= 0:
                kept.append(st)
                continue
            if not self.ledger.feasible_ever(tenant, need):
                # This request can never fit — not even on an idle
                # system inside its tenant's MPAM envelope.
                st.rejected_cycles = self.clock
                self.ledger.note_rejected()
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
        # Progress guarantee: an idle engine must never spin on QoS
        # round budgets alone — force the head-of-line feasible request
        # through the ledger (which still enforces floors/ceilings).
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
                self.pending.append(RequestState(arrivals[cursor]))
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
            quiet = len(self.pending) == queued
            if not self.running:
                if quiet:
                    # Nothing runs, nothing was admitted or rejected and
                    # the clock stands still: every later trip repeats
                    # this one.
                    raise SchedulingError(
                        "serving simulation failed to make progress "
                        f"({len(self.finished)} done, {len(self.rejected)} "
                        f"rejected of {offered})")
                # Everything pending was rejected this round; loop.
                continue
            if quiet:
                self._advance(arrivals[cursor].arrival_cycles
                              if cursor < offered else None)
            self._step()

    def _width(self, decoding: int) -> int:
        """The batch a decode step of ``decoding`` requests is priced at."""
        if self.mode == "static":
            return max(self.static_width, decoding)
        return decoding

    def _advance(self, next_arrival: Optional[int]) -> None:
        """Run the uneventful decode steps before the next event at once.

        Called before :meth:`_step` when admission changed nothing; it
        stops one step short of a finish, at the last step of the
        current context bucket, and, in continuous mode with a free
        slot, one step short of the step at whose end ``next_arrival``
        has landed.  The next :meth:`_step` is then the eventful one.
        """
        running = self.running
        if not all(st.prefilled for st in running):
            return
        steps = min(st.request.decode_tokens - st.decoded
                    for st in running) - 1
        if steps <= 0:
            return
        context = max(st.context_tokens for st in running)
        end = self.cost.decode_bucket_end(context)
        if end is not None:
            steps = min(steps, end - context + 1)
        width = self._width(len(running))
        step_cycles = self.cost.decode_cycles(width, context, steps=0)
        if step_cycles <= 0:
            raise SchedulingError("engine step priced at zero cycles")
        if (self.mode == "continuous" and next_arrival is not None
                and len(running) < self.max_batch):
            steps = min(steps, (next_arrival - self.clock - 1) // step_cycles)
        if steps <= 0:
            return
        self.cost.decode_cycles(width, context, steps=steps)
        first_token = self.clock + step_cycles
        self.clock += steps * step_cycles
        self.iterations += steps
        self.decode_steps += steps
        grown = steps * self.bpt
        for st in running:
            if st.decoded == 0:
                st.first_token_cycles = first_token
            st.decoded += steps
            st.kv_resident_bytes += grown
            self.ledger.grow(st.request.tenant, grown)

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
            max_context = max(st.context_tokens for st in decoding)
            step_cycles += self.cost.decode_cycles(
                self._width(len(decoding)), max_context)
            self.decode_steps += 1
        if step_cycles <= 0:
            raise SchedulingError("engine step priced at zero cycles")
        self.clock += step_cycles
        for st in prefilling:
            st.prefilled = True
            grown = st.request.prefill_tokens * self.bpt
            st.kv_resident_bytes += grown
            self.ledger.grow(st.request.tenant, grown)
        for st in decoding:
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
        self.running = [st for st in self.running if st.finish_cycles is None]
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


def simulate_serving(spec: ServeSpec, mode: str = "continuous",
                     cost_model=None,
                     trace: Optional[Sequence[Request]] = None,
                     with_manifest: bool = True,
                     with_counters: bool = True) -> ServeReport:
    """Run one serving campaign and return its report.

    ``cost_model`` defaults to a fresh :class:`StepCostModel` for the
    spec's (model, core); tests inject duck-typed stand-ins, and
    benchmark sweeps share one instance across modes so both schedulers
    price steps from the same compiled buckets.  ``trace`` overrides the
    generated arrival trace (it must be sorted by arrival cycle).
    """
    campaign = _Campaign(spec, mode, cost_model, trace)
    campaign.run()
    return campaign.report(with_manifest=with_manifest,
                           with_counters=with_counters)
