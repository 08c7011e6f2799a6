"""The per-step serving loop: the oracle the event-driven loop is checked
against.

:class:`PerStepCampaign` runs one loop trip per engine step — the
original, deliberately plain loop of :mod:`repro.serving.scheduler`,
from before runs of uneventful decode steps were advanced in one go.
It shares admission, the KV ledger, the cost model and the report with
production; ``run`` and ``_step`` are its own.  Agreement on the
digest, every request's cycle stamps, the ledger peaks and the bucket
invocations is what tests/serving/test_scheduler_equivalence.py
asserts.

Its progress guard, like production's, raises only on a trip that
changes nothing: a bound on the number of trips would also stop a
correct campaign with one long generation.
"""

from __future__ import annotations

from typing import List

from repro.errors import SchedulingError
from repro.serving.request import RequestState
from repro.serving.scheduler import _Campaign


class PerStepCampaign(_Campaign):
    """One serving campaign, simulated one engine step per loop trip."""

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
        still_running: List[RequestState] = []
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
