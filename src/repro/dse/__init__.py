"""Predictor-gated design-space exploration.

Search Table-5-style design spaces (clocks x cube tiling x buses x
capacities x workload mix) by predicting every candidate with the
learned cycle model and simulating only the predicted Pareto frontier —
``python -m repro.dse`` drives it; see ``docs/DSE.md``.
"""

from .engine import DseEngine, SearchSpec, brute_force_frontier
from .objectives import mix_weighted_cycles
from .pareto import frontier_groups, pareto_indices
from .space import Knob, MixEntry, SearchSpace, space_by_name
from .strategies import strategy_by_name

__all__ = [
    "DseEngine",
    "SearchSpec",
    "brute_force_frontier",
    "mix_weighted_cycles",
    "frontier_groups",
    "pareto_indices",
    "Knob",
    "MixEntry",
    "SearchSpace",
    "space_by_name",
    "strategy_by_name",
]
