"""The PPA objective vector: (model cycles, core area, rated power).

* **cycles** — the workload mix's weighted model cycles, predicted in
  the fast tier and replaced by the event engine's exact count once a
  candidate is promoted.  Weighted in fixed mix order so the fold is
  deterministic.
* **area_mm2** — the closed-form :func:`~repro.perf.area.core_area_mm2`
  (Table 3/4 anchors).  Exact at proposal time.
* **power_w** — the design's *rated* power: peak cube + vector dynamic
  power from the Table 3 anchors plus the static fraction, i.e. the
  PPA-table number a design point is budgeted against.  Like area it is
  a pure design property (frequency x datapath widths), so the
  promotion strata it induces are exact even before simulation; the
  achieved average power of a particular run is a profiling question,
  not a design-space axis.

Both are computed in batch over the same ``config_feature_columns``
dict the feature extractor uses, so the promotion loop calls no
per-config Python.  They reproduce the per-design models of
:mod:`repro.perf` bit for bit — ``core_area_mm2(config, node,
buffers_factor=BUFFERS_FACTOR)`` and the
:class:`~repro.perf.energy.EnergyModel` rated power ``(cube_power_w() +
vector_power_w()) * (1 + static_fraction)`` — as
``tests/dse/test_objectives.py`` checks.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..config.tech import tech_by_node
from ..perf.energy import EnergyModel
from .space import MixEntry

__all__ = [
    "BUFFERS_FACTOR",
    "design_area_columns",
    "design_power_columns",
    "mix_weighted_cycles",
]

# The core_area_mm2 default: computing units -> whole core (SRAM+control).
BUFFERS_FACTOR = 1.55


def _lanes(widths: np.ndarray) -> np.ndarray:
    # Widths are even byte counts, so float division == integer floor.
    return np.maximum(1.0, widths / 2.0)


def design_area_columns(columns: Dict[str, np.ndarray],
                        node_nm: float = 7) -> np.ndarray:
    """Whole-core area of every design point in a config-column dict.

    Operation order mirrors :func:`~repro.perf.area.core_area_mm2`
    exactly — (scalar + vector) + cube, then the buffers factor — so the
    two agree bit for bit.
    """
    tech = tech_by_node(node_nm)
    kmacs = (columns["cube_m"] * columns["cube_k"]
             * columns["cube_n"]) / 1024
    units = tech.scalar_mm2 \
        + _lanes(columns["vector_width_bytes"]) * tech.vector_mm2_per_lane \
        + kmacs * tech.cube_mm2_per_kmac
    return units * BUFFERS_FACTOR


def design_power_columns(columns: Dict[str, np.ndarray],
                         node_nm: float = 7) -> np.ndarray:
    """Rated power of every design point in a config-column dict:
    (peak cube + peak vector dynamic power) x (1 + static fraction)."""
    tech = tech_by_node(node_nm)
    freq = columns["frequency_hz"]
    cube_flops = 2.0 * (columns["cube_m"] * columns["cube_k"]
                        * columns["cube_n"]) * freq
    cube_w = cube_flops * tech.cube_pj_per_flop * 1e-12
    vec_flops = 2.0 * _lanes(columns["vector_width_bytes"]) * freq
    vec_w = vec_flops * tech.vector_pj_per_flop * 1e-12
    static_fraction = EnergyModel.static_fraction
    return (cube_w + vec_w) * (1.0 + static_fraction)


def mix_weighted_cycles(mix: Sequence[MixEntry],
                        per_model_cycles: Sequence[float]) -> float:
    """``sum(weight_i * cycles_i)`` as an in-order left fold."""
    if len(mix) != len(per_model_cycles):
        raise ValueError(
            f"{len(per_model_cycles)} cycle values for {len(mix)}-entry mix")
    total = 0.0
    for entry, cycles in zip(mix, per_model_cycles):
        total += entry.weight * float(cycles)
    return total
