"""Unified observability over the columnar trace arena.

One counter registry (:mod:`~repro.profiling.counters`), built from a
result its consumer already holds: a trace (``PerfCounters.from_trace``),
a compiled model (``model_counters``) or a serving step-cost model
(``StepCostModel.aggregate_counters``).  Around it: a Chrome / Perfetto
exporter (:mod:`~repro.profiling.chrome_trace`), per-layer roofline
attribution (:mod:`~repro.profiling.roofline`), and run provenance
manifests (:mod:`~repro.profiling.manifest`).  The whole layer is a
*pure view*: it reads finished results and never feeds back into a
schedule.

CLI: ``python -m repro.profiling.cli run resnet50 --soc ascend
--chrome-trace out.json``.
"""

from .counters import PerfCounters, channel_name, model_counters
from .manifest import RunManifest

__all__ = [
    "PerfCounters",
    "RunManifest",
    "channel_name",
    "model_counters",
]
