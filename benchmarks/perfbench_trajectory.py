"""Append one perfbench entry to ``benchmarks/results/BENCH_perfbench.json``.

::

    python3 benchmarks/perfbench_trajectory.py --seeds 1 2 3
    python3 benchmarks/perfbench_trajectory.py --root ../parent-checkout

Runs ``perfbench/run.py`` of the checkout at ``--root`` (default: this
one) for every workload and seed, once with ``--trace 0`` (latency and
set-up) and once with ``--trace 1`` (the per-layer split), and appends
one entry to this checkout's trajectory file.  Per workload it records,
for every metric, the median, quartiles, minimum and count over the
seeds, in the metric's own unit (``ref`` for timings, seconds for
``setup_s``), and the failed and attempted operations of all its runs.
The entry also records the measured checkout's ``git describe`` and the
seconds one ``ref`` took on this host, so entries taken on different
hosts can be told apart.

Not named ``bench_*.py``: ``make bench`` collects those.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results" / "BENCH_perfbench.json"
WORKLOADS = ("cold", "warm", "serve", "dse")


def _perfbench(root: Path, workload: str, seed: int, seconds: float,
               trace: int) -> dict:
    """One perfbench run's result object (its last line of output)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "n": len(values)}


def _ref_seconds(root: Path) -> float:
    """Median of five timings of perfbench's reference workload."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", root / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return statistics.median(run._reference_seconds() for _ in range(5))


def _describe(root: Path) -> str:
    return subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def measure(root: Path, seeds, seconds: float) -> dict:
    entry = {
        "timestamp": datetime.datetime.now().isoformat(timespec="seconds"),
        "describe": _describe(root),
        "ref_seconds": _ref_seconds(root),
        "seconds": seconds,
        "seeds": list(seeds),
        "workloads": {},
    }
    for workload in WORKLOADS:
        samples = {}
        units = {}
        attempted = failed = 0
        for trace in (0, 1):
            for seed in seeds:
                result = _perfbench(root, workload, seed, seconds, trace)
                attempted += result["attempted"]
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    samples.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
                print(f"{workload} seed {seed} trace {trace}: "
                      f"{result['failed']}/{result['attempted']} failed",
                      file=sys.stderr)
        entry["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"unit": units[name], **_spread(values)}
                        for name, values in samples.items()},
        }
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose perfbench/run.py is measured")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if len(args.seeds) < 3:
        parser.error("give at least three seeds")

    entry = measure(args.root.resolve(), args.seeds, args.seconds)
    history = json.loads(RESULTS.read_text()) if RESULTS.is_file() else []
    history.append(entry)
    RESULTS.write_text(json.dumps(history, indent=2) + "\n")
    print(json.dumps(entry, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
