"""KV-cache residency against a design point's real memory capacities.

Batch admission in the serving layer is *capacity-constrained*: a
request may only enter the running batch if its worst-case KV footprint
(prompt + every token it will generate, across all layers) fits in the
design point's modeled cache budget.  The budget is built from the same
capacity numbers every other part of the simulator uses:

* **on-chip**: the SoC LLC plus each core's L1 and UB scratchpads — the
  tier the hot tail of the cache lives in;
* **GM**: a configurable fraction (``ServeSpec.kv_fraction``, the ``run``
  CLI's ``--kv-fraction``) of DRAM *after* the model's weights are
  resident.

Per-tenant isolation reuses the automotive MPAM machinery
(:class:`~repro.soc.qos.MpamPartition` / :class:`~repro.soc.qos.QosArbiter`
from Section 3.3): each tenant's partition gives it a guaranteed floor
of the KV budget that no flood can take, and a ceiling that stops it
monopolizing the cache.

The :class:`KvLedger` enforces all of this and keeps conservation
counters — every offered request is exactly one of admitted / rejected /
queued at all times, and resident bytes never exceed reserved bytes
never exceed capacity (the invariants the hypothesis suite pins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..config.core_configs import CoreConfig
from ..config.soc_configs import SocConfig
from ..dtypes import DType, FP16
from ..errors import SchedulingError
from ..models.gpt import GptConfig
from ..soc.qos import MpamPartition, QosArbiter, TrafficClass
from .traffic import TenantSpec

__all__ = ["KvCapacity", "KvLedger", "qos_arbiter_for"]


@dataclass(frozen=True)
class KvCapacity:
    """The modeled KV budget of one (model, core, SoC) design point."""

    model: str
    onchip_bytes: int        # LLC + per-core (L1 + UB)
    gm_bytes: int            # post-weight DRAM share
    weight_bytes: int        # what the model's parameters pin in DRAM
    bytes_per_token: int

    @property
    def total_bytes(self) -> int:
        return self.onchip_bytes + self.gm_bytes

    @property
    def token_capacity(self) -> int:
        """How many tokens of KV the design point can keep resident."""
        return self.total_bytes // self.bytes_per_token

    @classmethod
    def for_design_point(cls, model: GptConfig, core: CoreConfig,
                         soc: SocConfig, kv_fraction: float,
                         dtype: DType = FP16) -> "KvCapacity":
        """Size the KV budget from the design point's own capacities."""
        if not 0.0 <= kv_fraction <= 1.0:
            raise SchedulingError(
                f"kv_fraction must lie in [0, 1], got {kv_fraction}")
        onchip = soc.llc_bytes + sum(
            count * (c.l1_bytes + c.ub_bytes) for c, count in soc.core_groups)
        weights = int(model.param_count() * dtype.bytes)
        gm = int(max(0, soc.dram_bytes - weights) * kv_fraction)
        bpt = model.kv_bytes_per_token(dtype)
        capacity = cls(model=model.name, onchip_bytes=int(onchip),
                       gm_bytes=gm, weight_bytes=weights,
                       bytes_per_token=bpt)
        if capacity.token_capacity < 1:
            raise SchedulingError(
                f"{model.name} on {soc.name}: KV budget "
                f"{capacity.total_bytes} B holds no tokens "
                f"({bpt} B/token)")
        return capacity


def qos_arbiter_for(tenants: Sequence[TenantSpec],
                    capacity_bytes: int) -> QosArbiter:
    """An MPAM arbiter over the KV budget, one class per tenant.

    Floors/ceilings come straight from the tenant specs'
    ``kv_floor``/``kv_ceiling`` shares; the arbiter's own validation
    (floor sum <= 100%, floor <= ceiling) applies unchanged.
    """
    classes = [TrafficClass(name=t.name, priority=t.priority,
                            critical=t.critical) for t in tenants]
    partitions = [
        MpamPartition(traffic_class=t.name, min_share=t.kv_floor,
                      max_share=t.kv_ceiling)
        for t in tenants if t.kv_floor > 0 or t.kv_ceiling < 1
    ]
    return QosArbiter(total_bandwidth=float(capacity_bytes),
                      classes=classes, partitions=partitions)


class KvLedger:
    """Byte-exact KV accounting with MPAM floors and ceilings.

    Reservation is worst-case at admission (prompt + full generation),
    so an admitted request can never be evicted mid-flight — the
    simplest residency discipline that still makes admission a real
    capacity decision.  ``grow_all`` tracks the *actual* resident bytes
    as tokens materialize, for the report's resident peak and the
    resident <= reserved <= capacity invariant chain.
    """

    def __init__(self, capacity: KvCapacity,
                 tenants: Sequence[TenantSpec]) -> None:
        self.capacity = capacity
        self.tenants = {t.name: t for t in tenants}
        # Reuses the MPAM validation + share semantics from soc.qos.
        self.arbiter = qos_arbiter_for(tenants, capacity.total_bytes)
        self.reserved: Dict[str, int] = {t.name: 0 for t in tenants}
        self.resident: Dict[str, int] = {t.name: 0 for t in tenants}
        # Running sums of the two dicts, so no update re-sums them.
        self.total_reserved = 0
        self.total_resident = 0
        self.peak_reserved = 0
        self.peak_resident = 0
        # Conservation counters (requests, not bytes).
        self.admitted = 0
        self.released = 0
        self.rejected = 0
        # The share geometry is fixed: each tenant's ceiling in bytes,
        # the floors in bytes of the tenants that have one, and the room
        # a tenant has on an otherwise idle system (its ceiling, less
        # every other tenant's floor).
        total = self._total_bytes = capacity.total_bytes
        floors: Dict[str, int] = {}
        self._ceilings: Dict[str, int] = {}
        for name in self.reserved:
            part = self.arbiter.partitions.get(name)
            floors[name] = int(part.min_share * total) if part else 0
            self._ceilings[name] = int((part.max_share if part else 1.0)
                                       * total)
        self._floored = [(name, floor) for name, floor in floors.items()
                         if floor > 0]
        self.idle_room: Dict[str, int] = {
            name: min(self._ceilings[name],
                      total - sum(f for o, f in floors.items() if o != name))
            for name in self.reserved}

    # -- share geometry -------------------------------------------------------

    def _available_to(self, name: str) -> int:
        """Free bytes ``name`` may claim: global free space minus the
        unused part of every *other* tenant's guaranteed floor."""
        if name not in self.reserved:
            raise SchedulingError(f"unknown tenant {name!r}")
        free = self._total_bytes - self.total_reserved
        held_floors = sum(max(0, floor - self.reserved[other])
                          for other, floor in self._floored
                          if other != name)
        tenant_room = self._ceilings[name] - self.reserved[name]
        return max(0, min(free - held_floors, tenant_room))

    # -- admission ------------------------------------------------------------

    def feasible_ever(self, name: str, nbytes: int) -> bool:
        """Could this reservation fit on an otherwise idle system?"""
        if name not in self.reserved:
            raise SchedulingError(f"unknown tenant {name!r}")
        return nbytes <= self.idle_room[name]

    def try_reserve(self, name: str, nbytes: int) -> bool:
        if nbytes <= 0:
            raise SchedulingError(f"{name}: reservation must be positive")
        if nbytes > self._available_to(name):
            return False
        self.reserved[name] += nbytes
        self.total_reserved += nbytes
        self.admitted += 1
        if self.total_reserved > self.peak_reserved:
            self.peak_reserved = self.total_reserved
        self._check()
        return True

    def note_rejected(self) -> None:
        self.rejected += 1

    def grow_all(self, grown: Dict[str, int]) -> None:
        """Materialize actual KV inside reservations: ``grown`` maps a
        tenant to the bytes its running requests added, checked once.

        Every amount is an increase, so the peak after the last one is
        the peak over the sequence."""
        for name, nbytes in grown.items():
            if nbytes:
                resident = self.resident[name] = self.resident[name] + nbytes
                if resident > self.reserved[name]:
                    raise SchedulingError(
                        f"{name}: resident {resident} B exceeds "
                        f"reservation {self.reserved[name]} B")
                self.total_resident += nbytes
        if self.total_resident > self.peak_resident:
            self.peak_resident = self.total_resident
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
        self.released += 1
        self._check()

    # -- invariants -----------------------------------------------------------

    def _check(self) -> None:
        if self.total_resident > self.total_reserved:
            raise SchedulingError(
                f"KV ledger: resident {self.total_resident} B exceeds "
                f"reserved {self.total_reserved} B")
        if self.total_reserved > self._total_bytes:
            raise SchedulingError(
                f"KV ledger: reserved {self.total_reserved} B exceeds "
                f"capacity {self._total_bytes} B")

    @property
    def in_flight(self) -> int:
        return self.admitted - self.released
