"""Benchmark of the simulator's user-facing entry points.

::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the simulator is imported from
``src/``.  Workloads (see ``workloads.py``): ``cold`` and ``warm`` model
compiles, ``serve`` LLM serving campaigns, ``dse`` design-space
searches.  Each run is a closed loop with one client: operations run
back to back, in seeded-shuffled rounds of the workload's pool, until
``--seconds`` have passed and at least the workload's ``min_ops``
operations were timed.  Every operation's output, timed or not, is checked against
``perfbench/expected.json`` and against invariants that need no
recorded value; ``attempted`` and ``failed`` count all of them.

Timings are host wall-clock times in units of ``ref``: an operation's
wall time divided by the mean wall time of a fixed pure-Python
reference workload run right before and right after it.  On a shared host the speed of the CPU the
benchmark gets drifts by tens of percent within seconds, and the same
drift slows the reference, so the ratio keeps what the program costs
and drops most of what the host did.  On the machine the benchmark was
written on one ``ref`` is about 2.5 ms.

Set-up runs ``SETUP_REPEATS`` times; ``setup_s`` is the median.  It is
a fresh interpreter importing the workload's modules, the workload's
own preparation (training the DSE predictor, compiling the serving
step-cost buckets), and, for a workload whose timed rounds share a
persistent cache filled by its pool, one untimed round of the pool in
pool order.  Each of these parts is timed in ``ref`` like an operation,
and ``setup_s`` converts the sum to seconds at ``REF_SECONDS`` per
``ref``: the set-up time on a host of the reference speed, which the
host's drift does not move.  Before the first set-up the benchmark
imports the whole program, untimed, so that no set-up and no operation
pays for an import in this process.

The last line of standard output is one JSON object.  With ``--trace 0``
its metrics are the latency p50 and p90 over the operations of the pool
(8 to 24 of them), each operation taken at the median of its samples
(at least five, one a round), and ``setup_s``.  With ``--trace 1`` the
layer wrappers of ``tracing.py`` are on for exactly the timed operations, and the metrics are, per
timed operation, the self time of each layer, the persistent-cache hit
ratio and the number of layer lowerings.
Simulated results do not depend on the trace flag.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# One ``ref`` in seconds on the host the benchmark was written on.
REF_SECONDS = 0.0025
# The reference: integer arithmetic plus a JSON + sha256 round trip of
# a fixed record, the two kinds of work the simulator's host time is
# made of (interpreted loops, and serialising and hashing cache keys).
_REFERENCE_RECORD = {"layers": [
    {"name": f"l{i}", "shape": [i, i + 1, 3], "dtype": "fp16",
     "scale": i / 7} for i in range(60)]}


def _reference_seconds() -> float:
    """Best of three timings of a fixed pure-Python workload (~2.5 ms).

    Best of three drops a timing that a preemption landed in.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(15_000):
            total += i * i
        for _ in range(4):
            blob = json.dumps(_REFERENCE_RECORD, sort_keys=True)
            hashlib.sha256(blob.encode()).hexdigest()
            json.loads(blob)
        best = min(best, time.perf_counter() - start)
    return best


# Run by a fresh interpreter: import the modules named in argv, then
# print the import's time in ref, timed in that interpreter.
_IMPORT_PROBE = """
import importlib, sys, time
from run import _reference_seconds
ref_before = _reference_seconds()
start = time.perf_counter()
for name in sys.argv[1:]:
    importlib.import_module(name)
elapsed = time.perf_counter() - start
print(elapsed / ((ref_before + _reference_seconds()) / 2))
"""


def _import_ref(modules) -> float:
    """Time of a fresh interpreter importing ``modules``, in ref.

    Interpreter start-up is left out: it is not the program's.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *modules],
                         cwd=ROOT, env=env, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    return float(out.strip().splitlines()[-1])


def _cache_counts() -> tuple:
    from repro.compiler import cache

    stats = cache.stats()
    return stats.get("hits", 0), stats.get("misses", 0)


class Runner:
    """Plays operations of one workload: isolates, times, checks."""

    def __init__(self, workload, expected: dict, workdir: Path,
                 trace: bool) -> None:
        from tracing import LAYERS, Tracer

        self.workload = workload
        self.expected = expected
        self.workdir = workdir
        self.tracer = Tracer() if trace else None
        self.run_op = workload.run
        if self.tracer is not None:
            self.run_op = self.tracer.wrap("orchestration", workload.run)
        self.latencies = {}           # key -> its timed samples, in ref
        self.layer_ref = {layer: 0.0 for layer in LAYERS}
        self.traced_ops = 0
        self.attempted = self.failed = 0
        self.cache_counts_at_install = (0, 0)
        self._clearers = []

    def refresh_clearers(self) -> None:
        from workloads import memo_clearers

        self._clearers = memo_clearers()

    def play(self, key: str, cache_dir: Path, timed: bool) -> float:
        """Run, time and check one operation; its time in ref."""
        for clear in self._clearers:
            clear()
        # Each operation starts from a collected heap, so the collections
        # inside it do not depend on what ran before it.
        gc.collect()
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
        self.attempted += 1
        tracer = self.tracer
        before = dict(tracer.self_s) if tracer is not None else None
        ref_before = _reference_seconds()
        start = time.perf_counter()
        try:
            out = self.run_op(key)
        except Exception as exc:  # counted, reported, the run goes on
            self.failed += 1
            print(f"{self.workload.name} {key}: {exc!r}", file=sys.stderr)
            return 0.0
        op_s = time.perf_counter() - start
        ref_s = (ref_before + _reference_seconds()) / 2
        if timed:
            self.latencies.setdefault(key, []).append(op_s / ref_s)
        if tracer is not None and tracer.installed:
            self.traced_ops += 1
            for layer, total in tracer.self_s.items():
                self.layer_ref[layer] += (total - before[layer]) / ref_s
        self.failed += not self._checked(key, out)
        return op_s / ref_s

    def _checked(self, key: str, out) -> bool:
        name = self.workload.name
        if not self.workload.invariants(key, out):
            print(f"{name} {key}: invariant violated", file=sys.stderr)
            return False
        summary = json.loads(json.dumps(self.workload.summary(key, out)))
        if summary != self.expected.get(key):
            print(f"{name} {key}: got {summary}, expected "
                  f"{self.expected.get(key)}", file=sys.stderr)
            return False
        return True

    def setup(self) -> tuple:
        """Set up ``SETUP_REPEATS`` times: (median seconds, cache dir).

        The last set-up's cache is the one the timed rounds use.  Set-up
        time counts the fill operations' own time, not the benchmark's
        checks around them.  With ``--trace 1`` the tracer goes on after
        the last set-up, so it sees the timed operations only.
        """
        from workloads import import_program

        workload = self.workload
        import_program()
        times = []
        for repeat in range(SETUP_REPEATS):
            setup_ref = _import_ref(workload.imports)
            self.refresh_clearers()
            for clear in self._clearers:
                clear()
            cache_dir = self.workdir / f"setup{repeat}"
            os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
            ref_before = _reference_seconds()
            start = time.perf_counter()
            workload.setup(cache_dir)
            setup_ref += ((time.perf_counter() - start)
                          / ((ref_before + _reference_seconds()) / 2))
            # What exists now lives for the whole run; freezing it keeps
            # the per-operation collections short.
            gc.collect()
            gc.freeze()
            if workload.shared_cache and workload.fill_round:
                self.refresh_clearers()
                for key in workload.pool:
                    setup_ref += self.play(key, cache_dir, timed=False)
            times.append(setup_ref * REF_SECONDS)
            if workload.setup_summary() != self.expected.get("_setup", {}):
                print(f"{workload.name}: set-up output "
                      f"{workload.setup_summary()} differs from expected "
                      f"{self.expected.get('_setup')}", file=sys.stderr)
                self.failed += 1
            if repeat < SETUP_REPEATS - 1:
                shutil.rmtree(cache_dir, ignore_errors=True)
        if self.tracer is not None:
            self.tracer.install()
            self.cache_counts_at_install = _cache_counts()
        return statistics.median(times), cache_dir


def measure(workload, expected: dict, seed: int, seconds: float,
            trace: bool, workdir: Path) -> dict:
    runner = Runner(workload, expected, workdir, trace)
    try:
        setup_s, shared_dir = runner.setup()
        rng = random.Random(seed)
        start = time.perf_counter()
        timed = 0
        while (time.perf_counter() - start < seconds
               or timed < workload.min_ops):
            order = list(workload.pool)
            rng.shuffle(order)
            runner.refresh_clearers()
            for key in order:
                cache_dir = (shared_dir if workload.shared_cache
                             else workdir / f"op{timed}")
                runner.play(key, cache_dir, timed=True)
                timed += 1
                if not workload.shared_cache:
                    shutil.rmtree(cache_dir, ignore_errors=True)
    finally:
        if runner.tracer is not None:
            runner.tracer.uninstall()

    if not runner.latencies:
        return {"correct": False, "attempted": runner.attempted,
                "failed": runner.failed, "metrics": {}}
    if runner.tracer is None:
        # Each operation of the pool at its median over the rounds, so a
        # sample a preemption landed in does not move the quantiles.
        medians = [statistics.median(samples)
                   for samples in runner.latencies.values()]
        metrics = {
            "latency_p50": (statistics.median(medians), "ref"),
            "latency_p90": (statistics.quantiles(medians, n=10)[8], "ref"),
            "setup_s": (setup_s, "s"),
        }
    else:
        hits0, misses0 = runner.cache_counts_at_install
        hits, misses = _cache_counts()
        hits, misses = hits - hits0, misses - misses0
        ops = runner.traced_ops
        metrics = {f"{layer}_self": (total / ops, "ref")
                   for layer, total in runner.layer_ref.items()}
        metrics["disk_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
        metrics["lowerings_per_op"] = (
            runner.tracer.calls["lower"] / ops, "count")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC / 'repro'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    expected = json.loads(
        (HERE / "expected.json").read_text())[workload.section]

    # Isolation: no inherited REPRO_* knob changes what is measured,
    # every cache the run writes lives under its own directory, and no
    # bytecode is written into the checkout.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = measure(workload, expected, args.seed, args.seconds,
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
