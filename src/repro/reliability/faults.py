"""Fault models: what can break, how often, and how it is specified.

A :class:`FaultPlan` is the complete, immutable description of one
fault-injection campaign: a seed plus zero or more fault models per
subsystem.  Plans come from two places:

* programmatically — construct the dataclasses and pass the plan to
  :func:`~repro.reliability.injector.install_plan` (or the
  ``fault_scope`` context manager);
* the ``REPRO_FAULTS`` environment variable — a compact spec string
  parsed by :func:`parse_fault_spec`.

Spec grammar (semicolon-separated clauses; the first may set the seed)::

    REPRO_FAULTS="seed=42;membit:space=UB,p=1e-4,bits=1"
    REPRO_FAULTS="sync:action=drop,p=0.05"
    REPRO_FAULTS="stall:pipe=MTE2,factor=4,p=0.1;cache:p=1"
    REPRO_FAULTS="chip:mtbf_hours=1000"

Each clause is ``kind:key=value,key=value``.  Kinds:

=========  ==================================================================
kind       meaning (defaults in parentheses)
=========  ==================================================================
membit     scratchpad bit flips: ``space`` (``*`` = any), ``p`` per read
           (0.0), ``bits`` 1 or 2 (1), ``ecc`` 0/1 (1 — SECDED on)
sync       flag-channel faults: ``action`` drop/dup/reorder, ``p`` per
           retired ``set_flag`` (0.0)
stall      pipe slowdowns: ``pipe`` name or ``*``, ``factor`` cost
           multiplier (2.0), ``p`` per instruction (0.0)
chip       cluster chip failures: ``mtbf_hours`` per chip (25000)
cache      compile-cache corruption: ``p`` per stored artifact (0.0)
=========  ==================================================================

Everything is off when ``REPRO_FAULTS`` is unset and no plan is
installed; the hooks throughout the stack check for an active injector
before doing any work, so the default path stays byte-identical.

Bad spec strings raise :class:`~repro.errors.ConfigError` naming the
variable and the accepted grammar — same contract as every other
``REPRO_*`` knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import ConfigError

__all__ = [
    "MemBitFault",
    "SyncFault",
    "StallFault",
    "ChipFault",
    "CacheFault",
    "FaultPlan",
    "parse_fault_spec",
    "SYNC_ACTIONS",
]

SYNC_ACTIONS = ("drop", "dup", "reorder")


@dataclass(frozen=True)
class MemBitFault:
    """Bit flips in a software-managed scratchpad, filtered by SECDED ECC.

    With ``ecc`` on (the default), single-bit flips are corrected
    transparently and double-bit flips raise a structured
    :class:`~repro.errors.EccError`.  With ``ecc`` off the flip silently
    corrupts the read data — the model of an unprotected buffer.
    """

    space: str = "*"          # scratchpad name (UB, L1, L0A, ...) or "*"
    probability: float = 0.0  # per read
    bits: int = 1             # 1 = correctable, 2 = detectable-uncorrectable
    ecc: bool = True

    def matches(self, pad_name: str) -> bool:
        return self.space == "*" or self.space == pad_name


@dataclass(frozen=True)
class SyncFault:
    """A dropped, duplicated, or reordered flag ``set`` event.

    ``channel`` restricts the fault to one packed flag channel (see
    :func:`~repro.isa.channels.pack_channel`); ``None`` targets any.
    """

    action: str = "drop"
    probability: float = 0.0  # per retired set_flag
    channel: Optional[int] = None

    def matches(self, packed_channel: int) -> bool:
        return self.channel is None or self.channel == packed_channel


@dataclass(frozen=True)
class StallFault:
    """A pipe running slow: selected instructions cost ``factor`` more."""

    pipe: str = "*"           # Pipe name or "*"
    factor: float = 2.0
    probability: float = 0.0  # per instruction


@dataclass(frozen=True)
class ChipFault:
    """Chip/link failures at cluster scale, exponential with this MTBF."""

    mtbf_hours: float = 25000.0


@dataclass(frozen=True)
class CacheFault:
    """Persistent compile-cache artifacts corrupted after being stored."""

    probability: float = 0.0  # per store


@dataclass(frozen=True)
class FaultPlan:
    """One seeded fault-injection campaign across all subsystems."""

    seed: int = 0
    memory: Tuple[MemBitFault, ...] = field(default_factory=tuple)
    sync: Tuple[SyncFault, ...] = field(default_factory=tuple)
    stall: Tuple[StallFault, ...] = field(default_factory=tuple)
    chip: Optional[ChipFault] = None
    cache: Optional[CacheFault] = None

    def is_noop(self) -> bool:
        """Whether this plan can never fire (all probabilities zero)."""
        return (
            all(f.probability == 0 for f in self.memory)
            and all(f.probability == 0 for f in self.sync)
            and all(f.probability == 0 for f in self.stall)
            and self.chip is None
            and (self.cache is None or self.cache.probability == 0)
        )


_ENV = "REPRO_FAULTS"


def _bad(spec: str, why: str) -> ConfigError:
    return ConfigError(
        f"{_ENV}={spec!r}: {why}; accepted: semicolon-separated clauses "
        f"'seed=N' or 'kind:key=value,...' with kind in "
        f"membit/sync/stall/chip/cache"
    )


def _clause_params(spec: str, body: str) -> dict:
    params = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise _bad(spec, f"malformed parameter {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _pop_float(spec: str, params: dict, key: str, default: float,
               lo: float = 0.0, hi: float = float("inf")) -> float:
    raw = params.pop(key, None)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise _bad(spec, f"{key}={raw!r} is not a number") from None
    if not lo <= value <= hi:
        raise _bad(spec, f"{key}={raw!r} out of range [{lo}, {hi}]")
    return value


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`."""
    seed = 0
    memory, sync, stall = [], [], []
    chip = cache = None
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[5:])
            except ValueError:
                raise _bad(spec, f"seed {clause[5:]!r} is not an integer") \
                    from None
            continue
        if ":" not in clause:
            raise _bad(spec, f"clause {clause!r} has no 'kind:' prefix")
        kind, body = clause.split(":", 1)
        kind = kind.strip()
        params = _clause_params(spec, body)
        if kind == "membit":
            bits_raw = params.pop("bits", "1")
            if bits_raw not in ("1", "2"):
                raise _bad(spec, f"bits={bits_raw!r} must be 1 or 2")
            memory.append(MemBitFault(
                space=params.pop("space", "*"),
                probability=_pop_float(spec, params, "p", 0.0, hi=1.0),
                bits=int(bits_raw),
                ecc=params.pop("ecc", "1") != "0",
            ))
        elif kind == "sync":
            action = params.pop("action", "drop")
            if action not in SYNC_ACTIONS:
                raise _bad(spec, f"action={action!r} must be one of "
                                 f"{'/'.join(SYNC_ACTIONS)}")
            channel_raw = params.pop("channel", None)
            try:
                channel = int(channel_raw) if channel_raw is not None else None
            except ValueError:
                raise _bad(spec,
                           f"channel={channel_raw!r} is not an integer") \
                    from None
            sync.append(SyncFault(
                action=action,
                probability=_pop_float(spec, params, "p", 0.0, hi=1.0),
                channel=channel,
            ))
        elif kind == "stall":
            stall.append(StallFault(
                pipe=params.pop("pipe", "*"),
                factor=_pop_float(spec, params, "factor", 2.0, lo=1.0),
                probability=_pop_float(spec, params, "p", 0.0, hi=1.0),
            ))
        elif kind == "chip":
            chip = ChipFault(mtbf_hours=_pop_float(
                spec, params, "mtbf_hours", 25000.0, lo=1e-6))
        elif kind == "cache":
            cache = CacheFault(probability=_pop_float(
                spec, params, "p", 0.0, hi=1.0))
        else:
            raise _bad(spec, f"unknown fault kind {kind!r}")
        if params:
            raise _bad(spec, f"unknown {kind} parameter(s) "
                             f"{sorted(params)!r}")
    return FaultPlan(seed=seed, memory=tuple(memory), sync=tuple(sync),
                     stall=tuple(stall), chip=chip, cache=cache)
