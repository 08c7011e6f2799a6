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

The loop is event-driven: a trip costs O(events + tenants), not
O(running + queued).

* **The running batch is aggregate state.**  Every decoder decodes one
  token a step, so the campaign's decode-step count is each decoder's
  clock; per-tenant decoder counts, the earliest finish and the longest
  context offset stand in for the requests.  A step that nobody
  finishes touches no request and grows the KV ledger in one call, by
  each tenant's decoder count.  A request's ``decoded`` and
  ``kv_resident_bytes`` are written when it finishes.  A step with a
  finisher walks the batch in running order
  and applies the growth accumulated so far before each release, so
  ``peak_resident_bytes`` is the one a per-request walk (each token
  grown, each finisher released right after its own token) records.
* **Uneventful steps run in bulk.**  When admission changed nothing and
  every running request is decoding, :meth:`_Campaign._advance` works
  out how many steps come before the next event and runs them in one
  go.  The next event is the first of: a request finishing; the longest
  context leaving its decode bucket; in continuous mode with a free
  batch slot, the step at whose end the next arrival has landed.
  Nothing else can change an admission outcome between events.  The
  queue changes only on an arrival, reserved KV bytes only on an
  admission or a release, and free slots only on an admission or a
  finish; the QoS arbitration is a pure function of the queue; a static
  batch admits only when it is empty.  Resident KV only grows between
  events, so the ledger checked at the end of a run of steps has held
  at every step in it.
* **Admission rounds stop early.**  The queue is kept in policy order
  as requests arrive, and per-tenant demand as exact integers.  A round
  stops at its last free slot, and skips a tenant's request that needs
  at least as much as one of the tenant's that failed this round: a
  tenant's ledger room and QoS budget only shrink within a round.

Finish order, ledger peaks and every report field match a step-by-step
run that walks every request on every step (``tests/serving/oracle.py``
is that run; the equivalence suite compares the two).

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
import math
from bisect import insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
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
from .stepcost import StepCostModel
from .traffic import TenantSpec, checked_seed, generate_trace

__all__ = ["ServeSpec", "ServeReport", "simulate_serving", "MODES",
           "POLICIES"]

MODES = ("continuous", "static")
POLICIES = ("fcfs", "spf")


@dataclass(frozen=True)
class ServeSpec:
    """One serving campaign: model x design point x tenants x knobs.

    * ``policy`` — batch-admission order: ``fcfs`` (arrival order) or
      ``spf`` (shortest-prefill-first).
    * ``max_batch`` — how many requests the engine keeps in flight at
      once, on top of the KV-capacity constraint.
    * ``kv_fraction`` — the share of the design point's DRAM left after
      weights that the KV cache may occupy, in [0, 1]; on-chip capacity
      (LLC + per-core L1/UB) is always available on top of it.
    """

    model: GptConfig
    core: CoreConfig
    soc: SocConfig
    tenants: Tuple[TenantSpec, ...]
    seed: int = 0
    policy: str = "fcfs"
    max_batch: int = 32
    kv_fraction: float = 0.3
    dtype: DType = FP16

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigError("a serving campaign needs at least one tenant")
        checked_seed(self.seed)
        if self.policy not in POLICIES:
            raise ConfigError(
                f"unknown policy {self.policy!r}; known: {POLICIES}")
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")


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


def _spf_key(st: RequestState):
    request = st.request
    return (request.prefill_tokens, request.arrival_cycles, request.tenant,
            request.index)


def _first_come(trace: Sequence[Request]) -> List[Request]:
    """``trace`` in first-come order: by arrival, ties by (tenant, index).

    A caller's trace is promised sorted by arrival only; a generated
    trace already has this order.
    """
    ordered = list(trace)
    for before, after in zip(ordered, ordered[1:]):
        if after.arrival_cycles < before.arrival_cycles:
            raise ConfigError(
                f"trace not sorted by arrival: {after.key} at cycle "
                f"{after.arrival_cycles} follows {before.key} at cycle "
                f"{before.arrival_cycles}")
    ordered.sort(key=lambda r: (r.arrival_cycles, r.tenant, r.index))
    return ordered


class _Campaign:
    """One simulation run; see :func:`simulate_serving`."""

    def __init__(self, spec: ServeSpec, mode: str, cost_model,
                 trace: Optional[Sequence[Request]]) -> None:
        if mode not in MODES:
            raise ConfigError(f"unknown serving mode {mode!r}; known: {MODES}")
        self.spec = spec
        self.mode = mode
        self.policy, self.max_batch = spec.policy, spec.max_batch
        self.cost = cost_model if cost_model is not None else StepCostModel(
            spec.model, spec.core, dtype=spec.dtype)
        self.capacity = KvCapacity.for_design_point(
            spec.model, spec.core, spec.soc, spec.kv_fraction, spec.dtype)
        self.ledger = KvLedger(self.capacity, spec.tenants)
        self.trace = _first_come(trace) if trace is not None else (
            generate_trace(spec.tenants, spec.seed, spec.core.frequency_hz))
        self.bpt = self.capacity.bytes_per_token
        self.clock = 0
        self.pending: List[RequestState] = []    # in policy order
        self.running: List[RequestState] = []    # in admission order
        self.finished: List[RequestState] = []
        self.rejected: List[RequestState] = []
        self.static_width = 0
        self.iterations = 0
        self.prefill_steps = 0
        self.decode_steps = 0
        self._names = sorted(t.name for t in spec.tenants)
        # The queue, per tenant: requests, their exact KV demand, and a
        # count and min-heap of the needs that could ever fit; plus the
        # number of queued requests that never can.
        self._queued = dict.fromkeys(self._names, 0)
        self._demand = dict.fromkeys(self._names, 0)
        self._needs: Dict[str, Dict[int, int]] = {n: {} for n in self._names}
        self._need_heap: Dict[str, List[int]] = {n: [] for n in self._names}
        self._infeasible = 0
        # The running batch as aggregates.  Every decoder decodes one
        # token a step, so decode_steps is each decoder's clock: one
        # whose prefill ended at decode_steps == J has decoded
        # decode_steps - J tokens, holds prefill_tokens - J +
        # decode_steps of context, and finishes when decode_steps
        # reaches its finish_step, J + decode_tokens.
        self._prefilling: List[RequestState] = []   # admitted, not stepped
        self._fresh: List[RequestState] = []   # prefilled last step
        self._decoders = dict.fromkeys(self._names, 0)
        self._decoding = 0
        # The earliest finish_step and the largest prefill_tokens - J
        # among the decoders (infinite while none decodes).
        self._next_finish = math.inf
        self._max_offset = -math.inf
        # The cost model may be shared across campaigns (so continuous
        # and static price from the same compiled buckets); invocation
        # accounting in the report must still be per-campaign.
        self._invocations_baseline = (dict(self.cost.invocations())
                                      if hasattr(self.cost, "invocations")
                                      else {})

    # -- the queue ------------------------------------------------------------

    def _enqueue(self, request: Request) -> None:
        st = RequestState(request, kv_need=request.kv_bytes(self.bpt))
        tenant = request.tenant
        if tenant not in self._queued:
            raise SchedulingError(f"unknown tenant {tenant!r}")
        self._queued[tenant] += 1
        self._demand[tenant] += st.kv_need
        if st.kv_need > self.ledger.idle_room[tenant]:
            self._infeasible += 1
        else:
            needs = self._needs[tenant]
            if st.kv_need not in needs:
                needs[st.kv_need] = 0
                heappush(self._need_heap[tenant], st.kv_need)
            needs[st.kv_need] += 1
        if self.policy == "spf":
            insort(self.pending, st, key=_spf_key)
        else:
            # Arrivals come in first-come order, the FCFS order.
            self.pending.append(st)

    def _dequeue(self, st: RequestState) -> None:
        tenant = st.request.tenant
        self._queued[tenant] -= 1
        self._demand[tenant] -= st.kv_need
        if st.kv_need > self.ledger.idle_room[tenant]:
            self._infeasible -= 1
            return
        needs = self._needs[tenant]
        needs[st.kv_need] -= 1
        if not needs[st.kv_need]:
            del needs[st.kv_need]

    def _smallest_need(self, tenant: str) -> int:
        """The smallest need among ``tenant``'s queued requests that
        could ever fit (it has one: the caller just walked it)."""
        heap = self._need_heap[tenant]
        while heap[0] not in self._needs[tenant]:
            heappop(heap)
        return heap[0]

    def _start(self, st: RequestState) -> None:
        st.admitted_cycles = self.clock
        st.kv_reserved_bytes = st.kv_need
        self.running.append(st)
        self._prefilling.append(st)
        self._dequeue(st)

    def _reject(self, st: RequestState) -> None:
        st.rejected_cycles = self.clock
        self.ledger.note_rejected()
        self.rejected.append(st)
        self._dequeue(st)

    # -- admission ------------------------------------------------------------

    def _qos_budgets(self) -> Optional[Dict[str, float]]:
        """Per-tenant byte budgets for this admission round.

        With two or more tenants contending, the round's budgets come
        from one MPAM arbitration over the KV capacity: floors first,
        then priority-weighted proportional shares up to each ceiling —
        soc.qos semantics, applied to cache bytes instead of DRAM
        bandwidth.  A single demanding tenant needs no arbitration.
        Demands are kept as exact integers and converted here; below
        2**53 bytes that equals summing each request's float need.
        """
        contending = {name: float(self._demand[name])
                      for name in self._names if self._queued[name]}
        if len(contending) < 2:
            return None
        return dict(self.ledger.arbiter.arbitrate(contending).granted)

    def _admit(self) -> None:
        """One admission round over the queue, in policy order.

        The walk stops when the last free slot is taken.  Within a
        round a tenant's ledger room and QoS budget only shrink, so
        once a tenant's request of need X fails, every later request of
        that tenant needing X or more fails too: the walk skips it
        without asking the ledger.  A request that could never fit is
        rejected when the walk reaches it with a slot free.  So the
        walk also stops once every tenant it started with is blocked
        (its smallest failed need is at most its smallest queued need)
        and nothing queued is left to reject.
        """
        slots = self.max_batch - len(self.running)
        pending = self.pending
        if slots <= 0 or not pending:
            return
        budgets = self._qos_budgets()
        ledger = self.ledger
        room = ledger.idle_room
        # A tenant's smallest failed need this round; it starts just
        # above what could ever fit, so one test sorts out every request
        # that is neither skipped nor rejected.
        limit = {name: idle + 1 for name, idle in room.items()}
        contending = sum(1 for name in self._names if self._queued[name])
        blocked = 0
        taken: List[int] = []   # positions admitted or rejected
        for i, st in enumerate(pending):
            tenant = st.request.tenant
            need = st.kv_need
            if need >= limit[tenant]:
                if need > room[tenant]:
                    # This request can never fit — not even on an idle
                    # system inside its tenant's MPAM envelope.
                    self._reject(st)
                    taken.append(i)
                continue
            if ((budgets is not None and need > budgets.get(tenant, 0.0))
                    or not ledger.try_reserve(tenant, need)):
                limit[tenant] = need
                if need <= self._smallest_need(tenant):
                    blocked += 1
                    if blocked == contending and not self._infeasible:
                        break
                continue
            self._start(st)
            taken.append(i)
            if budgets is not None:
                budgets[tenant] = budgets.get(tenant, 0.0) - need
            slots -= 1
            if not slots:
                break
        for i in reversed(taken):
            del pending[i]
        # Progress guarantee: an idle engine must never spin on QoS
        # round budgets alone — force the head-of-line feasible request
        # through the ledger (which still enforces floors/ceilings).
        # Nothing changes the ledger until a reservation succeeds, so
        # the same per-tenant skip holds.
        if not self.running and pending:
            limit = {}
            for i, st in enumerate(pending):
                tenant = st.request.tenant
                need = st.kv_need
                if tenant in limit and need >= limit[tenant]:
                    continue
                if ledger.try_reserve(tenant, need):
                    self._start(st)
                    del pending[i]
                    break
                limit[tenant] = need

    # -- the engine loop ------------------------------------------------------

    def run(self) -> None:
        arrivals = self.trace
        cursor = 0
        offered = len(arrivals)
        while len(self.finished) + len(self.rejected) < offered:
            while (cursor < offered
                   and arrivals[cursor].arrival_cycles <= self.clock):
                self._enqueue(arrivals[cursor])
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
        if self._prefilling:
            return
        decoded = self.decode_steps
        steps = self._next_finish - decoded - 1
        if steps <= 0:
            return
        context = self._max_offset + decoded
        end = self.cost.decode_bucket_end(context)
        if end is not None:
            steps = min(steps, end - context + 1)
        width = self._width(self._decoding)
        step_cycles = self.cost.decode_cycles(width, context, steps=0)
        if step_cycles <= 0:
            raise SchedulingError("engine step priced at zero cycles")
        if (self.mode == "continuous" and next_arrival is not None
                and self._decoding < self.max_batch):
            steps = min(steps, (next_arrival - self.clock - 1) // step_cycles)
        if steps <= 0:
            return
        self.cost.decode_cycles(width, context, steps=steps)
        first_token = self.clock + step_cycles
        for st in self._fresh:
            st.first_token_cycles = first_token
        self._fresh = []
        self.clock += steps * step_cycles
        self.iterations += steps
        self.decode_steps += steps
        grown = steps * self.bpt
        self.ledger.grow_all({name: count * grown
                              for name, count in self._decoders.items()})

    def _step(self) -> None:
        """One engine step: the prefills admitted since the last step,
        plus one token for every decoder.

        Resident KV grows as a per-request walk would grow it: every
        prefill, then each decoder in running order, a finisher
        releasing its bytes right after its own token.  Between two
        releases the resident total only rises, so the step applies the
        growth accumulated per tenant (one ledger call) just before each
        release and at its end: the ledger sees the same total at every
        release, hence the same peak.  Only a step with a finisher
        walks the running batch.
        """
        self.iterations += 1
        prefilling = self._prefilling
        step_cycles = 0
        if prefilling:
            total_tokens = sum(st.request.prefill_tokens for st in prefilling)
            step_cycles += self.cost.prefill_cycles(total_tokens)
            self.prefill_steps += 1
        if self._decoding:
            step_cycles += self.cost.decode_cycles(
                self._width(self._decoding),
                self._max_offset + self.decode_steps)
            self.decode_steps += 1
        if step_cycles <= 0:
            raise SchedulingError("engine step priced at zero cycles")
        self.clock += step_cycles
        bpt = self.bpt
        finishing = self._decoding and self._next_finish == self.decode_steps
        if self._decoding and not finishing:
            grown = {name: count * bpt
                     for name, count in self._decoders.items()}
        else:
            grown = dict.fromkeys(self._names, 0)
        for st in prefilling:
            grown[st.request.tenant] += st.request.prefill_tokens * bpt
        for st in self._fresh:
            st.first_token_cycles = self.clock
        if finishing:
            self._finish(grown)
        self.ledger.grow_all(grown)
        self._fresh = prefilling
        self._prefilling = []
        decoded = self.decode_steps
        for st in prefilling:
            st.prefilled = True
            finish = decoded + st.request.decode_tokens
            offset = st.request.prefill_tokens - decoded
            st.finish_step = finish
            if finish < self._next_finish:
                self._next_finish = finish
            if offset > self._max_offset:
                self._max_offset = offset
            self._decoding += 1
            self._decoders[st.request.tenant] += 1
        if self.mode == "static" and not self.running:
            self.static_width = 0

    def _finish(self, grown: Dict[str, int]) -> None:
        """The decode half of a step on which some decoder finishes:
        walk the running batch in order, releasing each finisher, and
        re-derive the earliest finish and longest context offset.
        ``grown`` holds the step's growth not yet applied; it is applied
        and cleared before each release, and the caller applies what is
        left."""
        decoded = self.decode_steps
        bpt = self.bpt
        ledger = self.ledger
        survivors: List[RequestState] = []
        next_finish, max_offset = math.inf, -math.inf
        for st in self.running:
            if not st.prefilled:
                # Prefilling in this step; it joins the decoders after.
                survivors.append(st)
                continue
            request = st.request
            tenant = request.tenant
            grown[tenant] += bpt
            if st.finish_step == decoded:
                ledger.grow_all(grown)
                for name in grown:
                    grown[name] = 0
                st.decoded = request.decode_tokens
                st.kv_resident_bytes = st.kv_reserved_bytes
                st.finish_cycles = self.clock
                ledger.release(tenant, st.kv_reserved_bytes,
                               st.kv_resident_bytes)
                self.finished.append(st)
                self._decoders[tenant] -= 1
                self._decoding -= 1
                continue
            survivors.append(st)
            finish = st.finish_step
            if finish < next_finish:
                next_finish = finish
            offset = request.prefill_tokens + request.decode_tokens - finish
            if offset > max_offset:
                max_offset = offset
        self.running = survivors
        self._next_finish, self._max_offset = next_finish, max_offset

    # -- reporting ------------------------------------------------------------

    def report(self, with_manifest: bool = True,
               with_counters: bool = True) -> ServeReport:
        freq = self.spec.core.frequency_hz
        makespan_cycles = self.clock
        makespan_s = makespan_cycles / freq

        names = self._names
        latencies: Dict[str, List[int]] = {name: [] for name in names}
        ttfts: Dict[str, List[int]] = {name: [] for name in names}
        tokens = dict.fromkeys(names, 0)
        for st in self.finished:
            request = st.request
            latencies[request.tenant].append(st.latency_cycles())
            ttfts[request.tenant].append(st.ttft_cycles())
            tokens[request.tenant] += request.decode_tokens
        rejected = dict.fromkeys(names, 0)
        for st in self.rejected:
            rejected[st.request.tenant] += 1
        offered = dict.fromkeys(names, 0)
        for request in self.trace:
            offered[request.tenant] += 1

        def _tenant_block(spec: TenantSpec) -> dict:
            name = spec.name
            slo = spec.slo_cycles(freq)
            met = sum(1 for lat in latencies[name] if lat <= slo)
            done = len(latencies[name])
            terminal = done + rejected[name]
            generated = tokens[name]
            return {
                "offered": offered[name],
                "completed": done,
                "rejected": rejected[name],
                "slo_cycles": slo,
                "slo_met": met,
                "slo_attainment": (met / terminal) if terminal else 0.0,
                "latency": latency_summary(latencies[name]),
                "ttft": latency_summary(ttfts[name]),
                "goodput_rps": met / makespan_s if makespan_s else 0.0,
                "throughput_rps": (done / makespan_s
                                   if makespan_s else 0.0),
                "generated_tokens": generated,
                "tokens_per_s": (generated / makespan_s
                                 if makespan_s else 0.0),
            }

        specs = {t.name: t for t in self.spec.tenants}
        tenants = {name: _tenant_block(specs[name]) for name in names}
        all_lat = [lat for name in names for lat in latencies[name]]
        all_ttft = [ttft for name in names for ttft in ttfts[name]]
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
    generated arrival trace: it must be sorted by arrival cycle
    (``ConfigError`` otherwise), and requests that arrive on the same
    cycle are taken in (tenant, index) order.
    """
    campaign = _Campaign(spec, mode, cost_model, trace)
    campaign.run()
    return campaign.report(with_manifest=with_manifest,
                           with_counters=with_counters)
