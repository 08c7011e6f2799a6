"""The benchmark's four workloads and the program outputs they check.

Every workload is a fixed pool of operations, each a call a user of the
simulator makes, with its expected output recorded in
``expected.json`` (regenerate with ``python3 perfbench/make_expected.py``
after a change that is meant to alter simulated results).  A run times
the pool in rounds, each shuffled by ``--seed``.  Whole rounds keep the
mix of operations, and so the latency distribution, the same from seed
to seed.

Caches are isolated.  Every module of the program is imported before
set-up, and before every operation each in-process memo tier is
emptied, as in a fresh process.  The persistent compile cache is a
directory of the run's own: either one per operation, empty, or one
shared by the timed rounds and filled during set-up, so no timed
operation pays for a first touch that another would have paid in a
different order.

* ``cold``: model compile+simulate, each from an empty persistent
  cache, so every layer is lowered and drained.
* ``warm``: the same compiles against the filled shared cache, so every
  compile is a whole-model cache hit.
* ``serve``: two-tenant LLM serving campaigns as
  ``python -m repro.serving run`` runs them by default (1000 requests
  per tenant); set-up compiles every step-cost bucket a campaign can
  price into the shared cache, so each campaign prices its buckets
  from disk and then runs the scheduler loop.
* ``dse``: predictor-gated design-space searches; a trained predictor
  ranks proposals and the promoted candidates are simulated through
  the filled shared cache.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

COMPILE_POOL: Tuple[Tuple[str, str], ...] = tuple(
    [("gesture", core) for core in ("ascend-tiny", "ascend-lite",
                                    "ascend-mini", "ascend")]
    + [(model, core)
       for model in ("wide_deep", "pointnet", "siamese", "isp_unet",
                     "gpt-tiny")
       for core in ("ascend-lite", "ascend-mini", "ascend")]
    + [(model, core) for model in ("mobilenet_v2", "resnet18")
       for core in ("ascend-lite", "ascend-mini")])

# Both batching modes under the default admission policy.  (At the
# default arrival rates a shortest-prefill-first campaign admits in the
# same order as a first-come one, so it would only repeat it.)  Four
# seeds: a campaign's time varies by about 10% from sample to sample on
# a shared host, so a small pool that each run samples often gives
# steadier quantiles than a wide one sampled a few times.
SERVE_POOL: Tuple[Tuple[int, str], ...] = tuple(
    (seed, mode) for seed in range(4) for mode in ("continuous", "static"))
# Per tenant: the ``--requests`` default of ``python -m repro.serving run``.
SERVE_REQUESTS = 1000

DSE_POOL: Tuple[int, ...] = tuple(range(24))


def import_program() -> None:
    """Import every module of the program, so that no operation's timing
    includes an import and ``memo_clearers`` sees every memo tier."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def memo_clearers() -> List[Callable[[], None]]:
    """A clear function for every in-process memo tier of the program.

    Found by scanning the loaded ``repro`` modules and their classes for
    ``lru_cache`` functions and for dict-like objects whose name says
    memo or cache, so a tier that is added or renamed is still emptied.
    """
    clearers: Dict[int, Callable[[], None]] = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        holders = [module] + [value for value in vars(module).values()
                              if isinstance(value, type)
                              and value.__module__ == name]
        for holder in holders:
            for attr, value in vars(holder).items():
                if isinstance(value, type):
                    continue
                if callable(getattr(value, "cache_clear", None)):
                    clearers[id(value)] = value.cache_clear
                elif (re.search("memo|cache", attr, re.IGNORECASE)
                      and callable(getattr(value, "clear", None))):
                    clearers[id(value)] = value.clear
    return list(clearers.values())


class Workload:
    """A pool of operation keys; ``run`` performs one, ``summary`` is
    the output checked against ``expected.json`` and ``invariants``
    the checks that need no recorded value."""

    name = ""
    section = ""               # the part of expected.json it checks
    imports: Tuple[str, ...] = ()
    pool: List[str] = []
    # True: the timed rounds share one persistent cache, filled during
    # set-up.  False: every operation starts from an empty one.
    shared_cache = True
    # True: set-up ends with one round of the pool that fills the shared
    # cache.  False: ``setup`` fills it itself.
    fill_round = True
    # Timed operations a run needs at least, besides ``--seconds``.
    min_ops = 100

    def setup(self, workdir: Path) -> None:
        """Work done once per run before timing starts."""

    def setup_summary(self) -> dict:
        return {}


class CompileWorkload(Workload):
    """``GraphEngine.compile_graph`` over a zoo model on a core."""

    imports = ("repro.compiler", "repro.config", "repro.models")

    def __init__(self, name: str, shared_cache: bool) -> None:
        self.name = name
        self.section = "compile"
        self.shared_cache = shared_cache
        self.pool = [f"{model}@{core}" for model, core in COMPILE_POOL]

    def run(self, key: str):
        from repro import models
        from repro.compiler import GraphEngine
        from repro.config import core_config_by_name

        model, core = key.split("@")
        graph = models.build_model(model)
        return GraphEngine(core_config_by_name(core)).compile_graph(graph)

    def summary(self, key: str, compiled) -> dict:
        return {"cycles": compiled.total_cycles,
                "layers": [layer.cycles for layer in compiled.layers]}

    def invariants(self, key: str, compiled) -> bool:
        return compiled.total_cycles == sum(layer.cycles
                                            for layer in compiled.layers)


class ServeWorkload(Workload):
    """One ``simulate_serving`` campaign of gpt-tiny on Ascend 310, with
    the defaults of ``python -m repro.serving run``."""

    name = section = "serve"
    imports = ("repro.serving.cli",)
    fill_round = False
    # Seven rounds of the pool; a campaign takes about 0.45 s.
    min_ops = 7 * len(SERVE_POOL)

    def __init__(self) -> None:
        self.pool = [f"s{seed}-{mode}" for seed, mode in SERVE_POOL]
        self.buckets = {}

    @staticmethod
    def _design():
        from repro.config.soc_configs import soc_config_by_name
        from repro.models.gpt import GPT_TINY

        soc = soc_config_by_name("ascend-310")
        return GPT_TINY, soc, soc.core_groups[0][0]

    def setup(self, workdir: Path) -> None:
        from repro.serving.settings import serve_max_batch
        from repro.serving.stepcost import StepCostModel

        # Every (phase, batch, context) bucket a campaign can price: a
        # prefill prices batch 1 at a power-of-two token count, a decode
        # step a power-of-two batch up to max_batch at a power-of-two
        # context.  Compiling them here keeps compiles out of the timed
        # campaigns, whatever order they run in.
        model, _soc, core = self._design()
        cost = StepCostModel(model, core)
        self.buckets = {}
        tokens = StepCostModel.MIN_TOKEN_BUCKET
        while tokens <= model.max_context:
            self.buckets[f"prefill_t{tokens}"] = cost.prefill_cycles(tokens)
            batch = 1
            while batch < 2 * serve_max_batch():
                self.buckets[f"decode_b{batch}_t{tokens}"] = (
                    cost.decode_cycles(batch, tokens))
                batch *= 2
            tokens *= 2

    def setup_summary(self) -> dict:
        return {"buckets": self.buckets}

    def run(self, key: str):
        from repro.serving.cli import default_tenants
        from repro.serving.scheduler import ServeSpec, simulate_serving

        seed, mode = key.split("-")
        model, soc, core = self._design()
        spec = ServeSpec(model=model, core=core, soc=soc,
                         tenants=default_tenants(SERVE_REQUESTS),
                         seed=int(seed[1:]))
        # The manifest is provenance (it runs ``git describe``), not a
        # result; leaving it out keeps a subprocess out of the timing.
        return simulate_serving(spec, mode=mode, with_manifest=False)

    def summary(self, key: str, report) -> dict:
        agg = report.aggregate
        return {"completed": agg["completed"], "rejected": agg["rejected"],
                "slo_met": agg["slo_met"],
                "latency_p50": agg["latency"]["p50"],
                "latency_p99": agg["latency"]["p99"],
                "ttft_p50": agg["ttft"]["p50"],
                "makespan_cycles": report.payload["makespan_cycles"],
                "iterations": report.payload["steps"]["iterations"]}

    def invariants(self, key: str, report) -> bool:
        tenants = report.tenants.values()
        return (all(t["completed"] + t["rejected"] == t["offered"]
                    == SERVE_REQUESTS for t in tenants)
                and all(t["slo_met"] <= t["completed"] for t in tenants)
                and all(t["ttft"]["p50"] <= t["latency"]["p50"]
                        <= t["latency"]["p99"] <= t["latency"]["max"]
                        for t in tenants if t["completed"]))


class DseWorkload(Workload):
    """One predictor-gated ``DseEngine`` search over the smoke space."""

    name = section = "dse"
    imports = ("repro.dse.engine", "repro.perf.predictor.train")

    def __init__(self) -> None:
        self.pool = [f"s{seed}" for seed in DSE_POOL]
        self.predictor = None
        self.out_dir = None

    def setup(self, workdir: Path) -> None:
        from repro.perf.predictor.train import train_predictor

        # A seconds-scale training recipe on the smoke space's own mix.
        report = train_predictor(
            seed=0, corpus=(("gesture", {}),), cores=("ascend-lite",),
            variants_per_core=8, rounds=40, max_workers=1)
        self.predictor = report.predictor
        self.out_dir = workdir / "dse"

    def setup_summary(self) -> dict:
        return {"predictor": self.predictor.content_key()}

    def run(self, key: str):
        from repro.dse.engine import DseEngine, SearchSpec
        from repro.dse.space import space_by_name

        spec = SearchSpec(space=space_by_name("smoke"), population=12,
                          generations=2, top_k=1, max_promote=2,
                          seed=int(key[1:]))
        engine = DseEngine(spec, self.predictor, self.out_dir)
        engine.run(max_workers=1)
        return engine

    def summary(self, key: str, engine) -> dict:
        return {"simulated": engine.stats()["simulated"],
                "frontier": [[member[:16],
                              engine.archive[member]["mix_cycles"]]
                             for _, members in engine.frontier()
                             for member in members]}

    def invariants(self, key: str, engine) -> bool:
        stats = engine.stats()
        return (0 < stats["simulated"] <= stats["proposed"]
                and len(engine.archive) == stats["simulated"])


WORKLOADS = {
    "cold": lambda: CompileWorkload("cold", shared_cache=False),
    "warm": lambda: CompileWorkload("warm", shared_cache=True),
    "serve": ServeWorkload,
    "dse": DseWorkload,
}
