"""Learned fast tier: the triage acceptance benchmark.

The NeuroScalar-style claim this repo makes for its predictor
(docs/PREDICTOR.md): over a 200-candidate design-point sweep the triage
tier — predict every candidate, simulate only the shortlist — is at
least 10x faster end to end than simulating everything, while the
simulated shortlist still contains the true top-5 designs and every
shortlisted number equals what full simulation produces.  This file
measures exactly that, with both legs cold, and renders the
``predicted_vs_simulated`` gating report.

Everything is fixed-seed: the training corpus, the candidate generator,
and the model fit are deterministic, so the top-5 reproduction check is
wall-clock independent (only the speedup line varies with machine load).
Like ``make predict-smoke`` it runs on a private, empty persistent
compile cache: on a filled ``REPRO_CACHE_DIR`` (a second run in the same
checkout) the simulate-everything leg would be mostly disk hits.  Both
timed legs run through the same serial runner (``max_workers=1``), so
the ratio compares the work each leg does rather than how well a worker
pool amortizes its start-up over 200 jobs against 12; training keeps
its workers.
"""

import tempfile

from repro.analysis import ascii_table
from repro.config.env import env_scope
from repro.perf.predictor.dataset import SMOKE_CORPUS
from repro.perf.predictor.sweep import clear_memo_tiers, triage_design_sweep
from repro.perf.predictor.train import train_predictor

_CANDIDATES = 200
_TOP_K = 12
_EPSILON = 0.05


def _train_and_triage():
    with tempfile.TemporaryDirectory(prefix="predictor-cache-") as cache:
        with env_scope(REPRO_CACHE_DIR=cache):
            report = train_predictor(seed=0, corpus=SMOKE_CORPUS,
                                     variants_per_core=12, rounds=60)
            clear_memo_tiers()
            sweep = triage_design_sweep(
                report.predictor, model="gesture", base_core="ascend-lite",
                n_candidates=_CANDIDATES, top_k=_TOP_K, epsilon=_EPSILON,
                seed=1, validate=True, max_workers=1)
    return report, sweep


def test_predictor_triage_reproduces_top5(report, benchmark):
    train, sweep = benchmark.pedantic(_train_and_triage,
                                      rounds=1, iterations=1)
    gate = sweep.gate

    shortlist = set(sweep.shortlist)
    rows = []
    for rank, name in enumerate(gate["true_top5"], 1):
        i = sweep.candidates.index(name)
        rows.append([
            rank, name,
            f"{sweep.full_simulated[i]:,.0f}",
            f"{sweep.predicted[i]:,.0f}",
            f"{abs(sweep.predicted[i] - sweep.full_simulated[i]) / sweep.full_simulated[i]:.1%}",
            "yes" if i in shortlist else "MISSED",
        ])
    table = ascii_table(
        ["rank", "design point", "simulated cyc", "predicted cyc",
         "rel err", "in shortlist"],
        rows, title="predicted_vs_simulated — true top-5 (full sim)")
    summary = (
        f"\ncandidates {gate['candidates']}  shortlist {gate['shortlist']}"
        f"  sweep MAPE {gate['mape']:.1%}  P95 {gate['p95']:.1%}\n"
        f"triage {gate['triage_seconds']}s vs full sim "
        f"{gate['full_sim_seconds']}s -> {gate['speedup']}x\n"
        f"holdout MAPE {train.holdout_mape:.1%} "
        f"({train.n_samples} training samples, "
        f"{train.train_seconds:.1f}s train)")
    report("predictor_triage", table + summary)

    # The acceptance criteria (accuracy/ranking are deterministic; the
    # speedup line is wall clock, so it keeps a margin under the 10x
    # criterion measured at ~14-19x).
    assert train.holdout_mape <= 0.15, train.metrics
    assert gate["top5_reproduced"], gate
    assert gate["best_matches_full"], gate
    assert gate["shortlist_sim_mismatches"] == 0, gate
    assert gate["speedup"] >= 10.0, gate
