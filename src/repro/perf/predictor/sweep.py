"""Predictor-triaged design-space exploration.

:func:`triage_design_sweep` is the fast tier in action: generate
candidate design points around a base core, predict model cycles for
**every** candidate from the feature matrix (one vectorized
``predict`` call — microseconds per candidate), then simulate only the
shortlist the triage policy keeps (top-K plus the epsilon near-tie
window) through the DSE search's simulation job
(:func:`repro.dse.engine._simulate_job`), which compiles each candidate
from the model's memoized workloads, scales and key text.

``validate=True`` additionally simulates *every* candidate and emits a
``predicted_vs_simulated`` gating report: per-candidate relative error,
whether the true top-5 designs were all in the shortlist, and the
measured end-to-end speedup of triage over simulate-everything.  Both
legs start with cold in-memory compile memo tiers (they are cleared
between them); the persistent compile cache is whatever
``REPRO_CACHE_DIR`` holds, so a speedup meant to compare cold legs
needs an empty one (``make predict-smoke`` uses a private one).

The predictor never produces a published number: every figure a triaged
sweep reports for a *kept* candidate is the event engine's own cycle
count, and the skipped candidates are reported as predictions, clearly
labelled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...bench.triage import shortlist_indices
from ...config.core_configs import CoreConfig, core_config_by_name
from .dataset import design_point_variants
from .features import candidate_feature_matrix, config_feature_columns
from .model import CyclePredictor, mape, p95_relative_error

__all__ = ["TriageSweepReport", "triage_design_sweep", "clear_memo_tiers"]

# The shortlist a triaged sweep simulates by default: the top-K
# predicted candidates plus every one predicted within (1 + epsilon) of
# the predicted best, so near-ties are never decided by the model alone.
DEFAULT_TOP_K = 8
DEFAULT_EPSILON = 0.05


def clear_memo_tiers() -> None:
    """Drop every in-memory compile/summary memo tier.

    Used between the timed legs of a validation run so both start cold;
    the persistent on-disk cache is governed separately by
    ``REPRO_CACHE``.
    """
    from ...compiler import lowering
    from ...compiler.graph_engine import GraphEngine
    from ...core import engine as engine_mod
    from ...dse import engine as dse_engine

    GraphEngine._GLOBAL_CACHE.clear()
    GraphEngine._GLOBAL_MODEL_CACHE.clear()
    lowering.clear_lowering_memo()
    engine_mod._SUMMARY_MEMO.clear()
    dse_engine._MIX_MEMO.clear()


@dataclass
class TriageSweepReport:
    """Everything a triaged DSE run decided, predicted, and measured."""

    model: str
    base_core: str
    candidates: List[str]            # config names, job order
    predicted: List[float]           # predicted model cycles per candidate
    shortlist: List[int]             # simulated candidate indices
    simulated: Dict[int, float]      # candidate index -> simulated cycles
    top_k: int
    epsilon: float
    best_index: int                  # argmin of simulated shortlist cycles
    predict_seconds: float = 0.0
    triage_seconds: float = 0.0      # features + predict + shortlist sim
    # validate=True only:
    full_sim_seconds: Optional[float] = None
    full_simulated: Optional[List[float]] = None
    gate: Dict[str, object] = field(default_factory=dict)

    @property
    def best_config(self) -> str:
        return self.candidates[self.best_index]

    @property
    def best_cycles(self) -> float:
        return self.simulated[self.best_index]

    def rows(self) -> List[Dict[str, object]]:
        """Per-candidate report rows (predicted vs simulated where known)."""
        out: List[Dict[str, object]] = []
        for i, name in enumerate(self.candidates):
            sim = self.simulated.get(i)
            if sim is None and self.full_simulated is not None:
                sim = self.full_simulated[i]
            row: Dict[str, object] = {
                "config": name,
                "predicted_cycles": round(self.predicted[i], 1),
                "simulated_cycles": sim,
                "in_shortlist": i in set(self.shortlist),
            }
            if sim:
                row["rel_error"] = round(
                    abs(self.predicted[i] - sim) / sim, 4)
            out.append(row)
        return out


def triage_design_sweep(predictor: CyclePredictor,
                        model: str = "gesture",
                        kwargs: Optional[dict] = None,
                        base_core: str = "ascend-lite",
                        n_candidates: int = 200,
                        top_k: int = DEFAULT_TOP_K,
                        epsilon: float = DEFAULT_EPSILON,
                        seed: int = 1,
                        validate: bool = False,
                        max_workers: Optional[int] = None
                        ) -> TriageSweepReport:
    """Triage ``n_candidates`` design points for ``model``; see module doc.

    The candidate generator excludes the base core itself (it is the
    anchor being perturbed, not a candidate) and never filters by dtype:
    the corpus models here must be supported on every variant, which
    holds because variants keep the base cube's k/n and dtypes.
    """
    # Imported here: dse.engine imports this package's features module.
    from ...dse.engine import _mix_model, _simulate_job

    kwargs = kwargs or {}
    base = core_config_by_name(base_core)
    configs = design_point_variants(base, n_candidates, seed=seed,
                                    include_base=False)
    mix = _mix_model(model, kwargs)

    # -- fast tier: one batched feature matrix, one model call ----------------
    triage_start = time.perf_counter()
    stack = candidate_feature_matrix(mix.pairs,
                                     config_feature_columns(configs),
                                     mix.scales)
    predicted = predictor.predict_model_cycles(stack, len(configs))
    predict_seconds = time.perf_counter() - triage_start

    keep = shortlist_indices([float(p) for p in predicted], top_k, epsilon)

    # -- slow tier: event engine on the shortlist only ------------------------
    from ...bench.runner import run_sweep

    jobs = [(model, kwargs, configs[i]) for i in keep]
    shortlist_cycles = run_sweep(jobs, _simulate_job, max_workers=max_workers)
    triage_seconds = time.perf_counter() - triage_start
    simulated = {i: float(c) for i, c in zip(keep, shortlist_cycles)}
    best_index = min(keep, key=lambda i: (simulated[i], i))

    report = TriageSweepReport(
        model=model,
        base_core=base_core,
        candidates=[c.name for c in configs],
        predicted=[float(p) for p in predicted],
        shortlist=keep,
        simulated=simulated,
        top_k=top_k,
        epsilon=epsilon,
        best_index=best_index,
        predict_seconds=predict_seconds,
        triage_seconds=triage_seconds,
    )
    if validate:
        _validate(report, model, kwargs, configs, max_workers)
    return report


def _validate(report: TriageSweepReport, model: str, kwargs: dict,
              configs: Sequence[CoreConfig],
              max_workers: Optional[int]) -> None:
    """Full-simulation leg + the ``predicted_vs_simulated`` gate."""
    from ...bench.runner import run_sweep
    from ...dse.engine import _simulate_job

    # Both legs cold: the triage leg above already paid its compiles, so
    # drop the memo tiers before timing the full sweep.
    clear_memo_tiers()
    full_start = time.perf_counter()
    full = run_sweep([(model, kwargs, c) for c in configs], _simulate_job,
                     max_workers=max_workers)
    full_seconds = time.perf_counter() - full_start
    full = [float(c) for c in full]
    report.full_sim_seconds = full_seconds
    report.full_simulated = full

    order = sorted(range(len(full)), key=lambda i: (full[i], i))
    true_top5 = order[:5]
    shortlist = set(report.shortlist)
    # The triage contract: shortlist simulation equals full simulation
    # for every kept candidate (same engine, same inputs).
    mismatches = [i for i in report.shortlist
                  if report.simulated[i] != full[i]]
    actual = np.asarray(full)
    predicted = np.asarray(report.predicted)
    report.gate = {
        "candidates": len(configs),
        "shortlist": len(report.shortlist),
        "top5_reproduced": all(i in shortlist for i in true_top5),
        "true_top5": [report.candidates[i] for i in true_top5],
        "best_matches_full": report.best_index == order[0],
        "shortlist_sim_mismatches": len(mismatches),
        "mape": mape(actual, predicted),
        "p95": p95_relative_error(actual, predicted),
        "triage_seconds": round(report.triage_seconds, 4),
        "full_sim_seconds": round(full_seconds, 4),
        "speedup": (round(full_seconds / report.triage_seconds, 2)
                    if report.triage_seconds > 0 else None),
    }
