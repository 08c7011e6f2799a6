"""Predictor CLI: train the fast tier, run triaged sweeps, gate the CI.

::

    python -m repro.perf.predictor train          # full corpus -> artifact
    python -m repro.perf.predictor sweep --model gesture --candidates 200 \\
        --validate                                # triage + gating report
    python -m repro.perf.predictor smoke          # the CI micro-gate

``train`` writes the artifact (model + metrics + RunManifest provenance
+ content key) to ``benchmarks/results/predictor_model.json`` unless
``--out`` / ``REPRO_PREDICT_MODEL`` says otherwise.  ``smoke`` is the
``make predict-smoke`` target: a fixed-seed micro-train on the small
corpus plus one validated triage sweep, asserting held-out MAPE <= 15%,
a >= 10x end-to-end speedup over simulate-everything, and that the true
top-5 designs all landed in the shortlist; nonzero exit on any failure.
The smoke runs on a private, empty persistent compile cache: on a warm
``REPRO_CACHE_DIR`` the simulate-everything leg the speedup divides by
would be mostly disk hits.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from ...config.env import check_knob_names, env_scope
from ...errors import ReproError
from .dataset import SMOKE_CORPUS
from .sweep import (DEFAULT_EPSILON, DEFAULT_TOP_K, clear_memo_tiers,
                    triage_design_sweep)
from .train import (default_artifact_path, load_artifact, save_artifact,
                    train_predictor)

__all__ = ["main"]

# The smoke gates `make predict-smoke` enforces (mirrored in
# benchmarks/bench_predictor_triage.py for the full-size criteria).
SMOKE_MAPE_GATE = 0.15
SMOKE_SPEEDUP_GATE = 10.0
SMOKE_SEED = 0
SMOKE_CANDIDATES = 200
SMOKE_VARIANTS = 12
SMOKE_TOP_K = 12
SMOKE_EPSILON = 0.05


def _print_metrics(metrics: dict) -> None:
    hold = metrics["holdout"]
    print(f"  holdout: MAPE {hold['mape']:.1%}  P95 {hold['p95']:.1%}  "
          f"({hold['samples']} samples)")
    for cls, block in sorted(metrics.get("holdout_by_class", {}).items()):
        print(f"    {cls:<12} MAPE {block['mape']:.1%}  "
              f"P95 {block['p95']:.1%}  ({block['samples']})")


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = SMOKE_CORPUS if args.smoke_corpus else None
    report = train_predictor(seed=args.seed, corpus=corpus,
                             variants_per_core=args.variants,
                             rounds=args.rounds,
                             max_workers=args.workers)
    path = save_artifact(report, Path(args.out) if args.out else None,
                         extras={"cli": "train", "seed": args.seed})
    print(f"trained on {report.n_samples} samples "
          f"({report.n_train} train / {report.n_holdout} holdout) "
          f"in {report.train_seconds:.1f}s")
    _print_metrics(report.metrics)
    print(f"artifact: {path}")
    print(f"content key: {report.predictor.content_key()[:16]}…")
    if report.holdout_mape > args.mape_gate:
        print(f"FAIL: holdout MAPE {report.holdout_mape:.1%} exceeds the "
              f"{args.mape_gate:.0%} gate", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    predictor, _ = load_artifact(Path(args.artifact) if args.artifact
                                 else None)
    report = triage_design_sweep(
        predictor, model=args.model, base_core=args.core,
        n_candidates=args.candidates, top_k=args.top_k,
        epsilon=args.epsilon, seed=args.seed, validate=args.validate,
        max_workers=args.workers)
    print(f"{args.model} @ {args.core}: {len(report.candidates)} candidates, "
          f"{len(report.shortlist)} simulated")
    print(f"best: {report.best_config} = {report.best_cycles:,.0f} cycles "
          f"(simulated)")
    if report.gate:
        print("predicted_vs_simulated gate:")
        for key, value in report.gate.items():
            if key == "true_top5":
                continue
            print(f"  {key}: {value}")
    if args.out:
        payload = {"gate": report.gate, "rows": report.rows()}
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report: {args.out}")
    if args.validate and not report.gate.get("top5_reproduced"):
        print("FAIL: shortlist missed part of the true top-5",
              file=sys.stderr)
        return 1
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    with tempfile.TemporaryDirectory(prefix="predictor-cache-") as cache:
        with env_scope(REPRO_CACHE_DIR=cache):
            return _smoke(args)


def _smoke(args: argparse.Namespace) -> int:
    failures: List[str] = []
    start = time.perf_counter()
    report = train_predictor(seed=SMOKE_SEED, corpus=SMOKE_CORPUS,
                             variants_per_core=args.variants,
                             rounds=60, max_workers=args.workers)
    print(f"[smoke] trained on {report.n_samples} samples in "
          f"{report.train_seconds:.1f}s")
    _print_metrics(report.metrics)
    if report.holdout_mape > SMOKE_MAPE_GATE:
        failures.append(f"holdout MAPE {report.holdout_mape:.1%} > "
                        f"{SMOKE_MAPE_GATE:.0%}")

    with tempfile.TemporaryDirectory(prefix="predictor-smoke-") as tmp:
        save_artifact(report, Path(tmp) / "model.json",
                      extras={"cli": "smoke"})
        predictor, _ = load_artifact(Path(tmp) / "model.json")

    clear_memo_tiers()
    sweep = triage_design_sweep(
        predictor, model="gesture", base_core="ascend-lite",
        n_candidates=args.candidates, top_k=SMOKE_TOP_K,
        epsilon=SMOKE_EPSILON, seed=SMOKE_SEED + 1, validate=True,
        max_workers=args.workers)
    gate = sweep.gate
    print(f"[smoke] triage: {gate['shortlist']}/{gate['candidates']} "
          f"simulated, speedup {gate['speedup']}x, "
          f"sweep MAPE {gate['mape']:.1%}")
    if not gate["top5_reproduced"]:
        failures.append(f"true top-5 not all in shortlist "
                        f"(missing from {gate['true_top5']})")
    if gate["shortlist_sim_mismatches"]:
        failures.append(f"{gate['shortlist_sim_mismatches']} shortlist "
                        "cycles differ from the full-simulation leg")
    if gate["speedup"] is None or gate["speedup"] < SMOKE_SPEEDUP_GATE:
        failures.append(f"triage speedup {gate['speedup']}x < "
                        f"{SMOKE_SPEEDUP_GATE:.0f}x")

    elapsed = time.perf_counter() - start
    if failures:
        for failure in failures:
            print(f"[smoke] FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"[smoke] OK in {elapsed:.1f}s")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.predictor",
        description="learned cycle-predictor fast tier")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="collect, fit, and save an artifact")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--variants", type=int, default=12,
                       help="design-point variants per base core")
    train.add_argument("--rounds", type=int, default=150,
                       help="boosting rounds")
    train.add_argument("--smoke-corpus", action="store_true",
                       help="train on the small CI corpus only")
    train.add_argument("--mape-gate", type=float, default=SMOKE_MAPE_GATE)
    train.add_argument("--workers", type=int, default=None)
    train.add_argument("--out", default=None,
                       help=f"artifact path (default {default_artifact_path()})")
    train.set_defaults(func=_cmd_train)

    sweep = sub.add_parser("sweep", help="triaged design-point sweep")
    sweep.add_argument("--model", default="gesture")
    sweep.add_argument("--core", default="ascend-lite")
    sweep.add_argument("--candidates", type=int, default=200)
    sweep.add_argument("--top-k", type=int, default=DEFAULT_TOP_K)
    sweep.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--artifact", default=None)
    sweep.add_argument("--validate", action="store_true",
                       help="also simulate everything and gate")
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--out", default=None, help="JSON report path")
    sweep.set_defaults(func=_cmd_sweep)

    smoke = sub.add_parser("smoke", help="the make predict-smoke CI gate")
    smoke.add_argument("--variants", type=int, default=SMOKE_VARIANTS)
    smoke.add_argument("--candidates", type=int, default=SMOKE_CANDIDATES)
    smoke.add_argument("--workers", type=int, default=None)
    smoke.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    try:
        check_knob_names()
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
