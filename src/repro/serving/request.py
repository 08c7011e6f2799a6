"""Request-level vocabulary of the serving layer.

A :class:`Request` is one user call: a prompt of ``prefill_tokens`` to
ingest and ``decode_tokens`` to generate.  It is immutable trace data —
everything the scheduler mutates lives in :class:`RequestState`, so the
same trace can be replayed through any scheduler/policy combination
without copying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import SchedulingError

__all__ = ["Request", "RequestState"]


@dataclass(frozen=True)
class Request:
    """One offered request, fixed by the traffic trace."""

    tenant: str
    index: int            # per-tenant sequence number (0-based)
    arrival_cycles: int   # absolute arrival time on the device clock
    prefill_tokens: int
    decode_tokens: int

    def __post_init__(self) -> None:
        if self.arrival_cycles < 0:
            raise SchedulingError(f"{self.key}: negative arrival")
        if self.prefill_tokens < 1 or self.decode_tokens < 1:
            raise SchedulingError(
                f"{self.key}: prefill/decode token counts must be >= 1")

    @property
    def key(self) -> str:
        return f"{self.tenant}/{self.index}"

    @property
    def total_tokens(self) -> int:
        """Peak context length: prompt plus every generated token."""
        return self.prefill_tokens + self.decode_tokens

    def kv_bytes(self, bytes_per_token: int) -> int:
        """Worst-case resident KV footprint at full generation."""
        return self.total_tokens * bytes_per_token


@dataclass
class RequestState:
    """Mutable per-request scheduling state.

    The scheduler keeps its running batch as aggregates, so ``decoded``
    and ``kv_resident_bytes`` are written when the request finishes;
    while it decodes they are derived from the campaign's decode-step
    count and ``finish_step``.
    """

    request: Request
    admitted_cycles: Optional[int] = None
    prefilled: bool = False
    first_token_cycles: Optional[int] = None   # TTFT endpoint
    finish_cycles: Optional[int] = None
    rejected_cycles: Optional[int] = None
    decoded: int = 0
    kv_reserved_bytes: int = 0
    kv_resident_bytes: int = 0
    kv_need: int = 0       # the worst-case reservation, cached at arrival
    finish_step: int = 0   # the campaign decode-step count it finishes at

    @property
    def done(self) -> bool:
        return self.finish_cycles is not None

    @property
    def rejected(self) -> bool:
        return self.rejected_cycles is not None

    def latency_cycles(self) -> int:
        if self.finish_cycles is None:
            raise SchedulingError(f"{self.request.key}: not finished")
        return self.finish_cycles - self.request.arrival_cycles

    def ttft_cycles(self) -> int:
        if self.first_token_cycles is None:
            raise SchedulingError(f"{self.request.key}: no first token")
        return self.first_token_cycles - self.request.arrival_cycles
