"""DSE CLI: run, resume, and report predictor-gated searches.

::

    python -m repro.dse search --space edge --generations 6   # full search
    python -m repro.dse resume --checkpoint <path>            # pick up a kill
    python -m repro.dse frontier --checkpoint <path>          # re-emit artifact
    python -m repro.dse report --checkpoint <path>            # ascii tables
    python -m repro.dse smoke                                 # the CI gate
    python -m repro.dse chaos-smoke                           # the RAS gate

``search`` trains a seeded predictor (or loads ``--artifact``), runs the
search, and writes both the checkpoint and the content-keyed frontier
artifact.  ``smoke`` is the ``make dse-smoke`` target: a fixed-seed
2-generation search over the 288-point validation slice must reproduce
the exact brute-force Pareto frontier while simulating at least 10x
fewer candidates than exhaustive sweep does; nonzero exit otherwise.
``chaos-smoke`` is the ``make chaos-smoke`` target: the same search run
under a seeded host-side chaos campaign (worker kills, job hangs,
corrupted payloads) through the sweep supervisor must *still* recover
the exact brute-force frontier, with at least one kill, one
timeout-recovered hang, and one corrupted payload actually injected —
and it writes the failure-report artifact to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from ..config.env import env_scope
from ..errors import ConfigError
from .engine import DseEngine, SearchSpec, brute_force_frontier
from .settings import (dse_dir, dse_epsilon, dse_generations,
                       dse_max_promote, dse_population, dse_strategy,
                       dse_top_k)
from .space import SearchSpace, space_by_name

__all__ = ["main"]

# The fixed-seed recipe and gates `make dse-smoke` enforces.
SMOKE_SEED = 0
SMOKE_POPULATION = 160
SMOKE_GENERATIONS = 2
SMOKE_TOP_K = 2
SMOKE_EPSILON = 0.05
SMOKE_MAX_PROMOTE = 14
SMOKE_TRAIN_VARIANTS = 60
SMOKE_TRAIN_ROUNDS = 60
SMOKE_SIM_RATIO_GATE = 10.0

# The seeded chaos campaign `make chaos-smoke` runs the same search
# under: worker kills, 30 s job hangs (caught by the 2 s supervisor
# timeout), and corrupted hand-backs, each decided per (job, attempt)
# from the seed.  Probabilities are sized so a ~30-job search sees a
# few of each kind while a 3-retry budget makes quarantine (4 faults in
# a row on one job) vanishingly unlikely.
CHAOS_SMOKE_SPEC = "seed=0;kill:p=0.10;hang:p=0.06,seconds=30;corrupt:p=0.08"
CHAOS_SMOKE_TIMEOUT = 2.0
CHAOS_SMOKE_RETRIES = 3
CHAOS_SMOKE_WORKERS = 2


def _load_space(args: argparse.Namespace) -> SearchSpace:
    if getattr(args, "space_file", None):
        payload = json.loads(Path(args.space_file).read_text())
        return SearchSpace.from_dict(payload)
    return space_by_name(args.space)


def _train_predictor(space: SearchSpace, variants: int, rounds: int,
                     seed: int, workers: Optional[int]):
    """Seeded predictor fit on the space's own base core and mix."""
    from ..perf.predictor.train import train_predictor

    corpus = [(entry.model, entry.kwargs_dict) for entry in space.mix]
    recipe = {
        "corpus": [[model, kwargs] for model, kwargs in corpus],
        "cores": [space.base_name],
        "variants": variants,
        "rounds": rounds,
        "seed": seed,
    }
    report = train_predictor(seed=seed, corpus=corpus,
                             cores=[space.base_name],
                             variants_per_core=variants, rounds=rounds,
                             max_workers=workers)
    return report.predictor, recipe, report


def _spec_from_args(args: argparse.Namespace, space: SearchSpace,
                    recipe: dict) -> SearchSpec:
    return SearchSpec(
        space=space,
        strategy=args.strategy,
        population=args.population,
        generations=args.generations,
        top_k=args.top_k,
        epsilon=args.epsilon,
        max_promote=args.max_promote,
        seed=args.seed,
        node_nm=args.node,
        predictor_recipe=recipe,
    )


def _print_summary(engine: DseEngine, frontier_file: Path) -> None:
    stats = engine.stats()
    print(f"search {engine.run_key[:16]}: "
          f"{engine.completed}/{engine.spec.generations} generations, "
          f"{stats['predicted']} candidates predicted, "
          f"{stats['simulated']} simulated "
          f"({stats['simulated_over_candidates']:.1%} of candidates, "
          f"{stats['simulated_over_space']:.2%} of the "
          f"{stats['space_size']}-point space)")
    frontier = engine.frontier()
    print(f"frontier: {len(frontier)} points")
    for vec, members in frontier:
        cycles, area, power = vec
        print(f"  {cycles:>14,.0f} cyc  {area:6.3f} mm2  {power:6.3f} W  "
              f"({len(members)} design{'s' if len(members) > 1 else ''})")
    print(f"checkpoint: {engine.checkpoint_path}")
    print(f"frontier artifact: {frontier_file} "
          f"(content key {engine.frontier_payload()['content_key'][:16]}…)")


def _cmd_search(args: argparse.Namespace) -> int:
    space = _load_space(args)
    if args.artifact:
        from ..perf.predictor.train import load_artifact

        predictor, payload = load_artifact(Path(args.artifact))
        recipe = {"artifact_content_key": payload.get("content_key", "")}
    else:
        predictor, recipe, report = _train_predictor(
            space, args.train_variants, args.train_rounds, args.seed,
            args.workers)
        print(f"trained predictor on {report.n_samples} samples "
              f"(holdout MAPE {report.holdout_mape:.1%}) in "
              f"{report.train_seconds:.1f}s")
    spec = _spec_from_args(args, space, recipe)
    engine = DseEngine(spec, predictor, args.out or dse_dir())
    if engine.checkpoint_path.is_file() and not args.fresh:
        print(f"existing checkpoint {engine.checkpoint_path} — resuming "
              "(pass --fresh to discard)")
        engine = DseEngine.resume(engine.checkpoint_path)
    engine.run(max_workers=args.workers)
    frontier_file = engine.write_frontier()
    _print_summary(engine, frontier_file)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    engine = DseEngine.resume(Path(args.checkpoint))
    print(f"resumed {engine.run_key[:16]} at generation "
          f"{engine.completed}/{engine.spec.generations} "
          f"({len(engine.archive)} candidates archived — none will be "
          "re-simulated)")
    engine.run(max_workers=args.workers)
    frontier_file = engine.write_frontier()
    _print_summary(engine, frontier_file)
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    engine = DseEngine.resume(Path(args.checkpoint))
    path = engine.write_frontier(Path(args.out) if args.out else None)
    payload = engine.frontier_payload()
    print(f"{len(payload['frontier'])} frontier points from "
          f"{len(engine.archive)} archived candidates")
    print(f"artifact: {path} (content key {payload['content_key'][:16]}…)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from ..analysis import ascii_table

    engine = DseEngine.resume(Path(args.checkpoint))
    rows = []
    for vec, members in engine.frontier():
        cycles, area, power = vec
        first = engine.archive[members[0]]
        knobs = ",".join(f"{k}={v}" for k, v in
                         sorted(first["assignment"].items()))
        rows.append([f"{cycles:,.0f}", f"{area:.3f}", f"{power:.3f}",
                     len(members), first["generation"], knobs])
    print(ascii_table(
        ["weighted cycles", "area mm2", "power W", "designs", "gen",
         "knobs (one representative)"],
        rows, title=f"Pareto frontier — {engine.spec.space.name} "
                    f"@ {engine.spec.space.base_name}"))
    gen_rows = [[g["generation"], g["proposed"], g["promoted"],
                 g["simulated"], g["archive"], g["frontier"]]
                for g in engine.gen_stats]
    print(ascii_table(
        ["gen", "proposed", "promoted", "simulated", "archive", "frontier"],
        gen_rows, title="search trajectory"))
    stats = engine.stats()
    print(f"simulated {stats['simulated']}/{stats['predicted']} predicted "
          f"candidates ({stats['simulated_over_candidates']:.1%}); "
          f"space coverage {stats['simulated_over_space']:.2%} of "
          f"{stats['space_size']} points")
    return 0


def smoke_spec(space: Optional[SearchSpace] = None,
               recipe: Optional[dict] = None) -> SearchSpec:
    """The fixed spec `make dse-smoke` and the benchmarks both run."""
    return SearchSpec(
        space=space if space is not None else space_by_name("smoke"),
        strategy="evolve",
        population=SMOKE_POPULATION,
        generations=SMOKE_GENERATIONS,
        top_k=SMOKE_TOP_K,
        epsilon=SMOKE_EPSILON,
        max_promote=SMOKE_MAX_PROMOTE,
        seed=SMOKE_SEED,
        predictor_recipe=dict(recipe or {}),
    )


def _cmd_smoke(args: argparse.Namespace) -> int:
    import tempfile

    from ..perf.predictor.sweep import clear_memo_tiers

    failures: List[str] = []
    start = time.perf_counter()
    space = space_by_name("smoke")
    predictor, recipe, report = _train_predictor(
        space, SMOKE_TRAIN_VARIANTS, SMOKE_TRAIN_ROUNDS, SMOKE_SEED,
        args.workers)
    print(f"[dse-smoke] trained predictor on {report.n_samples} samples "
          f"(holdout MAPE {report.holdout_mape:.1%}) in "
          f"{report.train_seconds:.1f}s")

    clear_memo_tiers()
    with tempfile.TemporaryDirectory(prefix="dse-smoke-") as tmp:
        engine = DseEngine(smoke_spec(space, recipe), predictor, tmp)
        engine.run(max_workers=args.workers)
        stats = engine.stats()
        search_frontier = engine.frontier()
        print(f"[dse-smoke] search: {stats['predicted']} predicted, "
              f"{stats['simulated']} simulated, "
              f"{len(search_frontier)} frontier points")

        brute, n_points = brute_force_frontier(
            space, max_workers=args.workers)
        ratio = (n_points / stats["simulated"]
                 if stats["simulated"] else float("inf"))
        print(f"[dse-smoke] brute force: {n_points} simulated, "
              f"{len(brute)} frontier points -> search simulated "
              f"{ratio:.1f}x fewer")

        search_vecs = [vec for vec, _ in search_frontier]
        brute_vecs = [vec for vec, _ in brute]
        if search_vecs != brute_vecs:
            missing = [v for v in brute_vecs if v not in search_vecs]
            extra = [v for v in search_vecs if v not in brute_vecs]
            failures.append(
                f"frontier mismatch: missing {missing}, extra {extra}")
        else:
            brute_members = dict(brute)
            for vec, members in search_frontier:
                if not set(members) <= set(brute_members[vec]):
                    failures.append(
                        f"frontier point {vec} lists designs the "
                        "brute-force oracle does not")
        if ratio < SMOKE_SIM_RATIO_GATE:
            failures.append(
                f"search simulated only {ratio:.1f}x fewer candidates "
                f"than exhaustive (< {SMOKE_SIM_RATIO_GATE:.0f}x)")

    elapsed = time.perf_counter() - start
    if failures:
        for failure in failures:
            print(f"[dse-smoke] FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"[dse-smoke] OK in {elapsed:.1f}s — exact frontier reproduced "
          f"with {stats['simulated']}/{n_points} simulations")
    return 0


def _results_dir() -> Path:
    """``benchmarks/results`` under the repo root (cwd as a fallback)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").is_file():
            return parent / "benchmarks" / "results"
    return Path.cwd() / "benchmarks" / "results"


def _cmd_chaos_smoke(args: argparse.Namespace) -> int:
    """``make chaos-smoke``: the dse-smoke search under seeded chaos.

    The brute-force frontier is computed fault-free, so matching it
    exactly *is* the byte-identity proof: ``make dse-smoke`` already
    pins the fault-free search to the same oracle, hence
    chaos-run == clean-run.  The campaign must actually bite (>= 1
    worker kill, >= 1 timeout-recovered hang, >= 1 corrupted payload)
    and no job may be quarantined — every fault has to be absorbed by
    the supervisor's retry machinery.
    """
    import tempfile

    from ..bench import supervisor
    from ..perf.predictor.sweep import clear_memo_tiers
    from ..reliability.chaos import chaos_scope, parse_chaos_spec

    failures: List[str] = []
    start = time.perf_counter()
    plan = parse_chaos_spec(CHAOS_SMOKE_SPEC)
    space = space_by_name("smoke")
    predictor, recipe, report = _train_predictor(
        space, SMOKE_TRAIN_VARIANTS, SMOKE_TRAIN_ROUNDS, SMOKE_SEED,
        args.workers)
    print(f"[chaos-smoke] trained predictor on {report.n_samples} samples "
          f"(holdout MAPE {report.holdout_mape:.1%}) in "
          f"{report.train_seconds:.1f}s")
    print(f"[chaos-smoke] campaign: {CHAOS_SMOKE_SPEC} | "
          f"timeout={CHAOS_SMOKE_TIMEOUT}s retries={CHAOS_SMOKE_RETRIES} "
          f"workers={CHAOS_SMOKE_WORKERS}")

    clear_memo_tiers()
    supervisor.reset_counters()
    supervisor.drain_failures()
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        engine = DseEngine(smoke_spec(space, recipe), predictor, tmp)
        with env_scope(REPRO_SWEEP_TIMEOUT=CHAOS_SMOKE_TIMEOUT,
                       REPRO_SWEEP_RETRIES=CHAOS_SMOKE_RETRIES), \
                chaos_scope(plan):
            engine.run(max_workers=CHAOS_SMOKE_WORKERS)
        counts = supervisor.counters()
        reports = supervisor.drain_failures()
        stats = engine.stats()
        search_frontier = engine.frontier()
        frontier_key = engine.frontier_payload()["content_key"]
        print(f"[chaos-smoke] search under chaos: "
              f"{stats['simulated']} simulated, "
              f"{len(search_frontier)} frontier points | "
              f"kills={counts['worker_deaths']} "
              f"timeouts={counts['timeouts']} "
              f"corrupt={counts['corrupt_payloads']} "
              f"retries={counts['retries']} "
              f"respawns={counts['pool_respawns']} "
              f"quarantined={counts['quarantined']}")

        # Fault-free oracle: exhaustive simulation of the whole slice.
        brute, n_points = brute_force_frontier(space,
                                               max_workers=args.workers)
        search_vecs = [vec for vec, _ in search_frontier]
        brute_vecs = [vec for vec, _ in brute]
        if search_vecs != brute_vecs:
            missing = [v for v in brute_vecs if v not in search_vecs]
            extra = [v for v in search_vecs if v not in brute_vecs]
            failures.append(
                f"frontier mismatch under chaos: missing {missing}, "
                f"extra {extra}")
        else:
            brute_members = dict(brute)
            for vec, members in search_frontier:
                if not set(members) <= set(brute_members[vec]):
                    failures.append(
                        f"frontier point {vec} lists designs the "
                        "brute-force oracle does not")
    if counts["worker_deaths"] < 1:
        failures.append("campaign injected no worker kill")
    if counts["timeouts"] < 1:
        failures.append("campaign produced no timeout-recovered hang")
    if counts["corrupt_payloads"] < 1:
        failures.append("campaign corrupted no payload")
    if counts["quarantined"] or reports:
        failures.append(
            f"{counts['quarantined']} job(s) quarantined — the retry "
            "budget failed to absorb the campaign")

    elapsed = time.perf_counter() - start
    # How many innocent pool-mates a kill preempts depends on host
    # timing, so it is printed with the wall time, not pinned.
    preempted = counts.pop("preempted")
    artifact = {
        "schema": 1,
        "chaos_spec": CHAOS_SMOKE_SPEC,
        "policy": {"timeout": CHAOS_SMOKE_TIMEOUT,
                   "retries": CHAOS_SMOKE_RETRIES,
                   "workers": CHAOS_SMOKE_WORKERS},
        "counters": counts,
        "failure_reports": [r.to_dict() for r in reports],
        "frontier": {"points": len(search_frontier),
                     "content_key": frontier_key,
                     "matches_brute_force": not failures},
        "gates": failures,
    }
    out = _results_dir() / "chaos_smoke.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"[chaos-smoke] report: {out}")

    if failures:
        for failure in failures:
            print(f"[chaos-smoke] FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"[chaos-smoke] OK in {elapsed:.1f}s ({preempted} pool-mate(s) "
          f"preempted) — exact frontier recovered "
          f"through {counts['worker_deaths']} kill(s), "
          f"{counts['timeouts']} timeout(s), "
          f"{counts['corrupt_payloads']} corrupted payload(s)")
    return 0


def _add_search_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--space", default="edge",
                        help="named space (smoke|edge|datacenter)")
    parser.add_argument("--space-file", default=None,
                        help="JSON SearchSpace payload (overrides --space)")
    parser.add_argument("--strategy", default=dse_strategy(),
                        choices=("evolve", "beam"))
    parser.add_argument("--population", type=int, default=dse_population())
    parser.add_argument("--generations", type=int,
                        default=dse_generations())
    parser.add_argument("--top-k", type=int, default=dse_top_k())
    parser.add_argument("--epsilon", type=float, default=dse_epsilon())
    parser.add_argument("--max-promote", type=int,
                        default=dse_max_promote())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--node", type=float, default=7.0,
                        help="process node (nm) for the PPA objectives")
    parser.add_argument("--artifact", default=None,
                        help="pretrained predictor artifact (else train)")
    parser.add_argument("--train-variants", type=int, default=48)
    parser.add_argument("--train-rounds", type=int, default=80)
    parser.add_argument("--out", default=None,
                        help=f"checkpoint dir (default {dse_dir()})")
    parser.add_argument("--fresh", action="store_true",
                        help="ignore an existing checkpoint for this spec")
    parser.add_argument("--workers", type=int, default=None)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dse",
        description="predictor-gated design-space exploration")
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="run a search from scratch")
    _add_search_args(search)
    search.set_defaults(func=_cmd_search)

    resume = sub.add_parser("resume", help="continue a killed search")
    resume.add_argument("--checkpoint", required=True)
    resume.add_argument("--workers", type=int, default=None)
    resume.set_defaults(func=_cmd_resume)

    frontier = sub.add_parser("frontier",
                              help="re-emit the frontier artifact")
    frontier.add_argument("--checkpoint", required=True)
    frontier.add_argument("--out", default=None)
    frontier.set_defaults(func=_cmd_frontier)

    report = sub.add_parser("report", help="ascii frontier + trajectory")
    report.add_argument("--checkpoint", required=True)
    report.set_defaults(func=_cmd_report)

    smoke = sub.add_parser("smoke", help="the make dse-smoke CI gate")
    smoke.add_argument("--workers", type=int, default=None)
    smoke.set_defaults(func=_cmd_smoke)

    chaos = sub.add_parser("chaos-smoke",
                           help="the make chaos-smoke RAS gate")
    chaos.add_argument("--workers", type=int, default=None,
                       help="workers for the fault-free phases (training, "
                            "brute force); the chaos phase always uses "
                            f"{CHAOS_SMOKE_WORKERS}")
    chaos.set_defaults(func=_cmd_chaos_smoke)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
