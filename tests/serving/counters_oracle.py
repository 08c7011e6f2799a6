"""Campaign counters added layer by layer: the oracle that
:meth:`repro.serving.StepCostModel.aggregate_counters` is checked
against.

:func:`oracle_aggregate_counters` aggregates as the cost model did
before each priced bucket kept its layers' field sums: one
``PerfCounters.from_layer`` per layer of every charged bucket, each
field scaled by the bucket's charged count, added one at a time.  It
compiles each bucket's graph again for those layers; from the cost
model's buckets it reads only what was priced and charged (cycles and
count).  A predictor-priced bucket has no layers and adds its cycles
only.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Optional

from repro.compiler import cache
from repro.profiling.counters import PerfCounters


def oracle_aggregate_counters(
        cost, since: Optional[Dict[str, int]] = None) -> PerfCounters:
    baseline = since or {}
    total = PerfCounters()
    for (phase, batch, tokens), bucket in sorted(cost._memo.items()):
        label = f"{phase}_b{batch}_t{tokens}"
        count = bucket.count - baseline.get(label, 0)
        if count <= 0:
            continue
        if cost.use_predictor:
            scaled = PerfCounters()
            scaled.total_cycles = bucket.cycles * count
            total.add(scaled)
            continue
        graph = cost._graph(phase, batch, tokens)
        for layer in cost.engine.compile_graph(graph).layers:
            total.add(PerfCounters.from_layer(SimpleNamespace(**{
                field: getattr(layer, field) * count
                for field in cache.LAYER_FIELDS})))
    return total
