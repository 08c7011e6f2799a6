"""Serving CLI: run seeded campaigns and the CI smoke gate.

::

    python -m repro.serving run --soc ascend-310 --mode continuous
    python -m repro.serving run --mode static --policy spf
    python -m repro.serving smoke          # the `make serve-smoke` gate

``run`` simulates one campaign of the standard two-tenant mix (an
interactive *chat* tenant with a tight SLO and a guaranteed MPAM floor
of the KV budget, plus a bulk *batch* tenant with longer prompts and a
ceiling) and prints the per-tenant latency/goodput/SLO table.

``smoke`` is the ``make serve-smoke`` target: a fixed-seed campaign of
>= 10k requests across the two tenants runs twice under continuous
batching (the two reports must be **byte-identical**, pinned by digest)
and once under static batching on the *same trace and the same compiled
step costs* — continuous batching must strictly beat static batching on
aggregate goodput.  Nonzero exit otherwise; the artifact lands in
``benchmarks/results/serving_smoke.json``.  The wall time of each run is
printed, not stored: the first continuous run includes the step-cost
bucket compiles, the repeat and the static run price from the memoized
buckets.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from ..config.core_configs import core_config_by_name
from ..config.soc_configs import soc_config_by_name
from ..errors import ConfigError, ReproError
from ..models.gpt import GPT_MEDIUM, GPT_SMALL, GPT_TINY, GptConfig
from .scheduler import MODES, ServeReport, ServeSpec, simulate_serving
from .stepcost import StepCostModel
from .traffic import TenantSpec

__all__ = ["main", "smoke_spec", "SMOKE_SEED", "SMOKE_REQUESTS"]

GPT_ZOO = {cfg.name: cfg for cfg in (GPT_TINY, GPT_SMALL, GPT_MEDIUM)}

# The fixed-seed recipe `make serve-smoke` enforces.
SMOKE_SEED = 0
SMOKE_REQUESTS = 5000          # per tenant; 2 tenants -> 10k offered
SMOKE_MODEL = "gpt-tiny"
SMOKE_CORE = "ascend-mini"
SMOKE_SOC = "ascend-310"
SMOKE_MAX_BATCH = 16
# On-chip only: admission must be a real capacity decision in the gate.
SMOKE_KV_FRACTION = 0.0
# Push the offered load well past the design point's service capacity:
# the continuous-vs-static goodput gap is a statement about scheduling
# under pressure, not about an idle system.
SMOKE_RATE_SCALE = 2.0


def default_tenants(requests: int, rate_scale: float = 1.0,
                    ) -> Tuple[TenantSpec, TenantSpec]:
    """The standard two-tenant mix: interactive chat vs. bulk batch.

    *chat* holds an MPAM floor of 25% of the KV budget (priority 1,
    critical) so the bulk tenant's long prompts can never starve it;
    *batch* is capped at 75% by its ceiling.
    """
    chat = TenantSpec(
        name="chat", rate_rps=300.0 * rate_scale, requests=requests,
        prefill_choices=(16, 32, 64), decode_choices=(8, 16, 32),
        slo_ms=250.0, priority=1, critical=True, kv_floor=0.25)
    batch = TenantSpec(
        name="batch", rate_rps=200.0 * rate_scale, requests=requests,
        prefill_choices=(64, 128, 256), prefill_weights=(1.0, 2.0, 1.0),
        decode_choices=(16, 32, 64), slo_ms=1000.0, priority=0,
        kv_ceiling=0.75)
    return chat, batch


def smoke_spec() -> ServeSpec:
    """The fixed campaign `make serve-smoke` runs."""
    return ServeSpec(
        model=GPT_ZOO[SMOKE_MODEL],
        core=core_config_by_name(SMOKE_CORE),
        soc=soc_config_by_name(SMOKE_SOC),
        tenants=default_tenants(SMOKE_REQUESTS, SMOKE_RATE_SCALE),
        seed=SMOKE_SEED,
        policy="fcfs",
        max_batch=SMOKE_MAX_BATCH,
        kv_fraction=SMOKE_KV_FRACTION,
    )


def _print_report(report: ServeReport) -> None:
    p = report.payload
    agg = report.aggregate
    print(f"{p['model']} on {p['core']}/{p['soc']} — mode={p['mode']} "
          f"policy={p['policy']} seed={p['seed']} "
          f"max_batch={p['max_batch']} cost={p['cost_tier']}")
    kv = p["kv"]
    print(f"  kv: {kv['total_bytes'] / 1e6:.1f} MB budget "
          f"({kv['token_capacity']} tokens), peak reserved "
          f"{kv['peak_reserved_bytes'] / 1e6:.1f} MB")
    for name, t in p["tenants"].items():
        lat, ttft = t["latency"], t["ttft"]
        print(f"  {name}: {t['completed']}/{t['offered']} done "
              f"({t['rejected']} rejected) | p50/p99 latency "
              f"{lat['p50']:,}/{lat['p99']:,} cyc | p50 TTFT "
              f"{ttft['p50']:,} cyc | SLO {t['slo_attainment']:.1%} | "
              f"goodput {t['goodput_rps']:.1f} rps")
    print(f"  aggregate: {agg['completed']}/{agg['offered']} done | "
          f"SLO {agg['slo_attainment']:.1%} | "
          f"goodput {agg['goodput_rps']:.1f} rps | "
          f"throughput {agg['throughput_rps']:.1f} rps | "
          f"{agg['tokens_per_s']:.0f} tok/s | "
          f"makespan {p['makespan_s']:.3f} s "
          f"({p['steps']['iterations']} iterations, "
          f"{p['steps'].get('distinct_buckets', '?')} compiled buckets)")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.model not in GPT_ZOO:
        raise ConfigError(
            f"unknown GPT config {args.model!r}; known: "
            f"{sorted(GPT_ZOO)}")
    soc = soc_config_by_name(args.soc)
    core = (core_config_by_name(args.core) if args.core
            else soc.core_groups[0][0])
    spec = ServeSpec(
        model=GPT_ZOO[args.model], core=core, soc=soc,
        tenants=default_tenants(args.requests, args.rate_scale),
        seed=args.seed,
        policy=args.policy, max_batch=args.max_batch,
        kv_fraction=args.kv_fraction)
    start = time.perf_counter()
    report = simulate_serving(spec, mode=args.mode)
    elapsed = time.perf_counter() - start
    _print_report(report)
    print(f"  digest {report.digest()[:16]}… in {elapsed:.1f}s wall")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_dict(), indent=2,
                                  sort_keys=True) + "\n")
        print(f"  report: {out}")
    return 0


def _results_dir() -> Path:
    """``benchmarks/results`` under the repo root (cwd as a fallback)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").is_file():
            return parent / "benchmarks" / "results"
    return Path.cwd() / "benchmarks" / "results"


def _timed(spec: ServeSpec, mode: str,
           cost: StepCostModel) -> Tuple[ServeReport, float]:
    start = time.perf_counter()
    report = simulate_serving(spec, mode=mode, cost_model=cost)
    return report, time.perf_counter() - start


def _cmd_smoke(args: argparse.Namespace) -> int:
    failures: List[str] = []
    start = time.perf_counter()
    spec = smoke_spec()
    offered = sum(t.requests for t in spec.tenants)
    print(f"[serve-smoke] campaign: {offered} requests, "
          f"{len(spec.tenants)} tenants, {SMOKE_MODEL} on "
          f"{SMOKE_CORE}/{SMOKE_SOC}, seed={SMOKE_SEED}")
    if offered < 10_000:
        failures.append(f"campaign offers only {offered} requests (< 10k)")
    if len(spec.tenants) < 2:
        failures.append("campaign must mix >= 2 tenants")

    # One shared cost model: both schedulers price steps from the same
    # compiled buckets, so the goodput gap is scheduling, not pricing.
    cost = StepCostModel(spec.model, spec.core, dtype=spec.dtype)

    # Wall times are printed, not stored: the artifact stays
    # byte-identical from run to run.
    first, first_s = _timed(spec, "continuous", cost)
    print(f"[serve-smoke] continuous run 1 ({first_s:.1f}s wall, bucket "
          "compiles included):")
    _print_report(first)
    second, second_s = _timed(spec, "continuous", cost)
    if first.digest() != second.digest():
        failures.append(
            f"continuous campaign not reproducible: digest "
            f"{first.digest()[:16]} != {second.digest()[:16]}")
    else:
        print(f"[serve-smoke] repeat run byte-identical "
              f"(digest {first.digest()[:16]}…) in {second_s:.2f}s wall, "
              "buckets memoized")

    static, static_s = _timed(spec, "static", cost)
    print(f"[serve-smoke] static baseline ({static_s:.2f}s wall):")
    _print_report(static)
    cont_goodput = first.goodput_rps()
    stat_goodput = static.goodput_rps()
    if not cont_goodput > stat_goodput:
        failures.append(
            f"continuous batching goodput {cont_goodput:.2f} rps does not "
            f"beat static batching {stat_goodput:.2f} rps")
    else:
        print(f"[serve-smoke] goodput: continuous {cont_goodput:.1f} rps > "
              f"static {stat_goodput:.1f} rps "
              f"({cont_goodput / stat_goodput:.2f}x)")

    elapsed = time.perf_counter() - start
    artifact = {
        "schema": 1,
        "campaign": {
            "model": SMOKE_MODEL, "core": SMOKE_CORE, "soc": SMOKE_SOC,
            "seed": SMOKE_SEED, "offered": offered,
            "tenants": sorted(t.name for t in spec.tenants),
            "max_batch": SMOKE_MAX_BATCH,
            "kv_fraction": SMOKE_KV_FRACTION,
        },
        "digest": first.digest(),
        "repeat_digest": second.digest(),
        "continuous": first.payload,
        "static": static.payload,
        "goodput_ratio": (cont_goodput / stat_goodput
                          if stat_goodput else None),
        "gates": failures,
    }
    out = _results_dir() / "serving_smoke.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(f"[serve-smoke] report: {out}")

    if failures:
        for failure in failures:
            print(f"[serve-smoke] FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"[serve-smoke] OK in {elapsed:.1f}s — {offered} requests "
          f"byte-identical across runs, continuous beats static "
          f"{cont_goodput / stat_goodput:.2f}x on goodput")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="request-level LLM serving over the simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one serving campaign")
    run.add_argument("--model", default="gpt-tiny",
                     help=f"GPT config ({'|'.join(sorted(GPT_ZOO))})")
    run.add_argument("--soc", default="ascend-310")
    run.add_argument("--core", default=None,
                     help="core config (default: the SoC's first group)")
    run.add_argument("--mode", default="continuous", choices=MODES)
    run.add_argument("--policy", default=None, choices=("fcfs", "spf"),
                     help="admission order (default: REPRO_SERVE_POLICY)")
    run.add_argument("--max-batch", type=int, default=None)
    run.add_argument("--kv-fraction", type=float, default=None)
    run.add_argument("--requests", type=int, default=1000,
                     help="requests per tenant")
    run.add_argument("--rate-scale", type=float, default=1.0,
                     help="scale both tenants' arrival rates")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None, help="write the JSON report")
    run.set_defaults(func=_cmd_run)

    smoke = sub.add_parser("smoke", help="the make serve-smoke CI gate")
    smoke.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
