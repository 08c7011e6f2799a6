"""Fault injection & RAS: deterministic fault models plus the machinery
that detects and recovers from what they inject.

The paper's one unified core scales from IoT parts to a 2048-chip
training cluster (§8) — a range that only works in production because
the deployed stack survives faults.  This package models the three
classes that dominate real deployments and wires their
detection/recovery into the rest of the simulator:

* **memory** — scratchpad bit flips filtered by a SECDED ECC model
  (:mod:`~repro.reliability.ecc`, hooked into ``memory/buffer.py``):
  single-bit corrected, double-bit detected and raised structurally;
* **synchronization** — dropped/duplicated/reordered flag ``set`` events
  and pipe stalls (hooked into the engine drain), diagnosed by the
  wait-for-graph watchdog (:mod:`~repro.reliability.deadlock`) that
  names the guilty channel instead of an opaque deadlock string;
* **cluster** — MTBF-driven chip failures with checkpoint/restart
  economics (:mod:`~repro.reliability.checkpoint`, used by
  ``cluster/training.py``) so scaling curves bend realistically.

Everything is off by default: with ``REPRO_FAULTS`` unset and no plan
installed, every hook is a single ``None`` check and all cycle counts,
traces, and functional outputs are byte-identical to a faultless build.
"""

from .checkpoint import (
    CheckpointPolicy,
    CheckpointedRun,
    cluster_mtbf_seconds,
    expected_runtime,
    optimal_checkpoint_interval,
)
from .deadlock import DeadlockReport, PipeStall, build_report, channel_label
from .faults import (
    CacheFault,
    ChipFault,
    FaultPlan,
    MemBitFault,
    StallFault,
    SyncFault,
    parse_fault_spec,
)
from .chaos import (
    ChaosMonkey,
    ChaosPlan,
    CorruptChaos,
    HangChaos,
    KillChaos,
    active_chaos,
    chaos_scope,
    clear_chaos,
    install_chaos,
    parse_chaos_spec,
)
from .injector import (
    FaultInjector,
    active_injector,
    clear_plan,
    fault_scope,
    install_plan,
)

__all__ = [
    "FaultPlan",
    "MemBitFault",
    "SyncFault",
    "StallFault",
    "ChipFault",
    "CacheFault",
    "parse_fault_spec",
    "FaultInjector",
    "install_plan",
    "clear_plan",
    "active_injector",
    "fault_scope",
    "DeadlockReport",
    "PipeStall",
    "build_report",
    "channel_label",
    "CheckpointPolicy",
    "CheckpointedRun",
    "cluster_mtbf_seconds",
    "optimal_checkpoint_interval",
    "expected_runtime",
    "ChaosPlan",
    "KillChaos",
    "HangChaos",
    "CorruptChaos",
    "ChaosMonkey",
    "parse_chaos_spec",
    "install_chaos",
    "clear_chaos",
    "active_chaos",
    "chaos_scope",
]
