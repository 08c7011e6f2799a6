"""The triage shortlist: which predicted candidates get simulated.

:func:`shortlist_indices` keeps the top-K predicted candidates plus
everything within ``(1 + epsilon)`` of the predicted best.  The triage
contract: predicted scores only ever *rank*; any number that leaves a
sweep (a published table row, a chosen design point) comes from the
event engine via the shortlist.  Callers verify that with the
``predicted_vs_simulated`` report the predictor sweeps emit.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["shortlist_indices"]


def shortlist_indices(predicted: Sequence[float], top_k: int,
                      epsilon: float) -> List[int]:
    """Top-K by predicted score plus the (1 + epsilon) near-tie window.

    Deterministic, with exact-tie semantics pinned by regression tests:

    * the top-K slots resolve ties by job index (stable argsort), so
      equal predicted scores shortlist in stable index order and the
      lowest indices win the last slots;
    * the epsilon window is a single value-based comparison against one
      cutoff computed **in float64** regardless of the input container's
      dtype, so two candidates with exactly equal predicted scores at
      the window boundary always receive the identical in/out decision
      (a float32 prediction array used to evaluate ``best * (1 + eps)``
      in float32, which could split exact boundary ties depending on
      rounding direction);
    * the returned indices are ascending.

    Accepts any 1-D sequence or ndarray; scores are read as float64.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    scores = np.asarray(predicted, dtype=np.float64).reshape(-1)
    if scores.size == 0:
        return []
    order = np.argsort(scores, kind="stable")
    keep = np.zeros(scores.size, dtype=bool)
    keep[order[:top_k]] = True
    cutoff = float(scores[order[0]]) * (1.0 + epsilon)
    keep |= scores <= cutoff
    return [int(i) for i in np.flatnonzero(keep)]
