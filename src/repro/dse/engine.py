"""The predictor-gated search driver.

One generation = propose -> predict -> promote -> simulate -> archive
-> checkpoint:

1. The strategy proposes up to ``population`` unseen candidates
   (deterministic in ``(seed, generation, archive)``).
2. The fast tier builds **one** stacked feature matrix for the whole
   generation (every mix workload x every candidate, from the search's
   feature layer tables) and makes **one** model call; area and rated
   power come from the vectorized closed-form PPA columns.  No
   per-config Python runs in this loop.
3. Promotion keeps the predicted-Pareto-frontier plus epsilon window:
   a candidate is simulated only when its prediction is within
   ``(1 + epsilon)`` of the best prediction at no-worse area and rated
   power (batch plus archive), ordered by that slack and capped at
   ``max_promote`` simulations per generation.
4. Promoted candidates run through the event engine via
   :func:`repro.bench.supervisor.supervise` — process-parallel, sharing
   the content-addressed compile cache across generations and resumes,
   with per-job retry/timeout/quarantine under the ``REPRO_SWEEP_*``
   knobs; a candidate whose simulation is quarantined is dropped from
   the generation (and may be re-promoted later) rather than aborting
   the search.
5. The archive (candidate content key -> simulated record) and the
   stats ledger are checkpointed atomically to a run-keyed JSON: compact
   JSON (written by the C encoder) into a ``tempfile.mkstemp`` file of
   the checkpoint's directory, then ``os.replace``, so processes sharing
   the file never collide on a temp name or expose a torn checkpoint.
   A killed search resumes from the last completed generation (from a
   compact or an indented checkpoint alike): archived candidates are
   **never** re-simulated, and the resumed trajectory is identical to
   the uninterrupted one — the exported frontier artifact, still
   indented JSON, is byte-identical (pinned by
   ``tests/dse/test_resume.py``).

A search derives what depends only on its mix once, when the engine is
built: each mix model's grouped workloads, im2col scales and the
encoded layer part of its whole-model cache key go into a per-process
memo (``_MIX_MEMO``) that every simulation job reads, and
each model's :class:`~repro.perf.predictor.features.LayerTable` is
built for the predictions.  A generation then pays only for what a
``CoreConfig`` changes: the config columns of the feature pass, and
per job the design point's part of the model key and the cache lookup.

The checkpoint carries the trained predictor payload itself, so a
resume predicts with exactly the model the search started with, plus a
RunManifest provenance stamp (the one volatile section, excluded from
every content key).  Every checkpoint carries the full manifest; its
``git`` is the tree's describe at the process's first collection, so a
search runs ``git describe`` once, not once per generation.  The
sections no generation changes (schema, run key, spec, predictor) are
encoded once per search and spliced into each checkpoint's text.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..config.core_configs import CoreConfig
from ..config.env import env_int
from ..errors import ConfigError
from ..graph.workload import OpWorkload
from ..perf.predictor.features import LayerTable, config_feature_columns
from ..perf.predictor.model import CyclePredictor
from .objectives import (design_area_columns, design_power_columns,
                         mix_weighted_cycles)
from .pareto import frontier_groups
from .space import Assignment, SearchSpace
from .strategies import strategy_by_name

__all__ = ["SearchSpec", "DseEngine", "brute_force_frontier"]

CHECKPOINT_SCHEMA = 1
FRONTIER_SCHEMA = 1
# What resume reads besides the schema and run key.  The frontier
# artifact shares both with the checkpoint, so these tell them apart.
_CHECKPOINT_SECTIONS = ("spec", "predictor", "completed_generations",
                        "seen", "archive", "generations")


class _MixModel(NamedTuple):
    """What the jobs of one mix model share: everything but the core."""

    name: str
    pairs: List[Tuple[str, OpWorkload]]   # grouped workloads
    scales: Dict[str, float]              # im2col GM-fetch scales
    layers_text: str                      # cache.model_layers_text


# (model, sorted kwargs) -> _MixModel, per process.  DseEngine fills it
# in the parent, so fork workers inherit it; a worker that starts
# without an entry (brute_force_frontier's) builds it on its first job.
_MIX_MEMO: Dict[Tuple[str, tuple], _MixModel] = {}


def _mix_model(model_name: str, kwargs: Dict[str, object]) -> _MixModel:
    key = (model_name, tuple(sorted(kwargs.items())))
    mix = _MIX_MEMO.get(key)
    if mix is None:
        from ..compiler import cache
        from ..compiler.graph_engine import _im2col_scales
        from ..models import build_model

        graph = build_model(model_name, **kwargs)
        pairs = list(graph.grouped_workloads())
        scales = _im2col_scales(graph)
        mix = _MIX_MEMO[key] = _MixModel(
            graph.name, pairs, scales, cache.model_layers_text(pairs, scales))
    return mix


def _simulate_job(job: Tuple[str, dict, CoreConfig]) -> float:
    """Sweep worker: total simulated model cycles on one design point."""
    from ..compiler import GraphEngine

    model_name, kwargs, config = job
    mix = _mix_model(model_name, kwargs)
    compiled = GraphEngine(config).compile_pairs(
        mix.name, mix.pairs, mix.scales, mix.layers_text)
    return float(sum(layer.cycles for layer in compiled.layers))


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _splice_sorted(encoded: Dict[str, str], sections: dict) -> str:
    """``_canonical`` of the union of ``encoded`` and ``sections``, where
    ``encoded`` maps a key to its value's ``_canonical`` text: sections
    encoded once are spliced in among the others in sorted-key order,
    as the encoder would have placed them."""
    texts = dict(encoded)
    for key, value in sections.items():
        texts[key] = _canonical(value)
    return "{" + ",".join([json.encoder.encode_basestring_ascii(key) + ":"
                           + texts[key] for key in sorted(texts)]) + "}"


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a private temp file and
    ``os.replace``: concurrent writers each rename a complete file of
    their own, so a reader sees one whole version or another."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@dataclass(frozen=True)
class SearchSpec:
    """Everything that determines a search trajectory — and nothing else.

    The run key is a sha256 over the canonical spec dict; two processes
    given the same spec converge on the same checkpoint file, the same
    proposals, and the same frontier.
    """

    space: SearchSpace
    strategy: str = "evolve"
    population: int = 96
    generations: int = 6
    top_k: int = 4
    epsilon: float = 0.02
    max_promote: int = 24
    seed: int = 0
    node_nm: float = 7.0
    predictor_recipe: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ConfigError("population must be >= 1")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        if self.max_promote < 1:
            raise ConfigError("max_promote must be >= 1")
        strategy_by_name(self.strategy)  # validates the name

    def to_dict(self) -> dict:
        return {
            "space": self.space.to_dict(),
            "strategy": self.strategy,
            "population": self.population,
            "generations": self.generations,
            "top_k": self.top_k,
            "epsilon": self.epsilon,
            "max_promote": self.max_promote,
            "seed": self.seed,
            "node_nm": self.node_nm,
            "predictor_recipe": dict(self.predictor_recipe),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchSpec":
        return cls(
            space=SearchSpace.from_dict(payload["space"]),
            strategy=str(payload["strategy"]),
            population=int(payload["population"]),
            generations=int(payload["generations"]),
            top_k=int(payload["top_k"]),
            epsilon=float(payload["epsilon"]),
            max_promote=int(payload["max_promote"]),
            seed=int(payload["seed"]),
            node_nm=float(payload["node_nm"]),
            predictor_recipe=dict(payload.get("predictor_recipe", {})),
        )

    def run_key(self) -> str:
        return hashlib.sha256(_canonical(self.to_dict()).encode()).hexdigest()


class DseEngine:
    """One search run: in-memory state + the on-disk checkpoint."""

    def __init__(self, spec: SearchSpec, predictor: CyclePredictor,
                 out_dir) -> None:
        self.spec = spec
        self.predictor = predictor
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.completed = 0                     # generations finished
        self.seen: set = set()                 # every key ever proposed
        self.archive: Dict[str, dict] = {}     # key -> simulated record
        self.gen_stats: List[dict] = []
        # Wall-clock accumulators for benchmarks; never checkpointed.
        self.timings = {"predict_seconds": 0.0, "simulate_seconds": 0.0}
        self._run_key = spec.run_key()
        self._strategy = strategy_by_name(spec.strategy)
        self._tables = self._load_mix()
        # The checkpoint sections no generation changes, encoded once.
        self._fixed_sections = {
            "schema": _canonical(CHECKPOINT_SCHEMA),
            "run_key": _canonical(self._run_key),
            "spec": _canonical(spec.to_dict()),
            "predictor": _canonical(predictor.to_dict()),
        }

    def _load_mix(self) -> List[LayerTable]:
        """One feature table per mix model; fills the process's mix memo
        that every simulation job of the search reads."""
        tables = []
        base = self.spec.space.base
        for entry in self.spec.space.mix:
            mix = _mix_model(entry.model, entry.kwargs_dict)
            for _, work in mix.pairs:
                for gemm in work.gemms:
                    if not base.supports_dtype(gemm.dtype):
                        raise ConfigError(
                            f"mix workload {entry.label!r} needs "
                            f"{gemm.dtype} which base core {base.name!r} "
                            "does not support")
            tables.append(LayerTable(mix.pairs, mix.scales))
        return tables

    # -- paths ----------------------------------------------------------------

    @property
    def run_key(self) -> str:
        return self._run_key

    @property
    def checkpoint_path(self) -> Path:
        return self.out_dir / f"dse-{self._run_key[:16]}.json"

    @property
    def frontier_path(self) -> Path:
        return self.out_dir / f"dse-frontier-{self._run_key[:16]}.json"

    # -- resume ---------------------------------------------------------------

    @classmethod
    def resume(cls, checkpoint_path) -> "DseEngine":
        """Rebuild an engine from a checkpoint, predictor included."""
        path = Path(checkpoint_path)
        if not path.is_file():
            raise ConfigError(f"no DSE checkpoint at {path}")
        try:
            payload = json.loads(path.read_text())
        except ValueError as exc:
            raise ConfigError(
                f"DSE checkpoint {path} is not JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise ConfigError(f"DSE checkpoint {path} is not a JSON object")
        if payload.get("schema") != CHECKPOINT_SCHEMA:
            raise ConfigError(
                f"DSE checkpoint {path} has schema "
                f"{payload.get('schema')!r}; this build expects "
                f"{CHECKPOINT_SCHEMA}")
        missing = [name for name in _CHECKPOINT_SECTIONS
                   if name not in payload]
        if missing:
            raise ConfigError(
                f"DSE checkpoint {path} is missing "
                f"{', '.join(map(repr, missing))} — a frontier artifact "
                "(dse-frontier-*.json) is not a checkpoint; pass the "
                "dse-<key>.json path the search printed")
        spec = SearchSpec.from_dict(payload["spec"])
        if payload.get("run_key") != spec.run_key():
            raise ConfigError(
                f"DSE checkpoint {path} run key does not match its spec — "
                "the file was edited; restart the search instead")
        engine = cls(spec, CyclePredictor.from_dict(payload["predictor"]),
                     path.parent)
        engine.completed = int(payload["completed_generations"])
        engine.seen = set(payload["seen"])
        engine.archive = dict(payload["archive"])
        engine.gen_stats = list(payload["generations"])
        return engine

    # -- the generation loop --------------------------------------------------

    def run(self, max_workers: Optional[int] = None,
            stop_after: Optional[int] = None) -> dict:
        """Run to ``spec.generations`` (or ``stop_after`` more), then
        return the frontier payload.  Checkpoints after every
        generation; safe to kill and :meth:`resume` at any point."""
        import time

        if not self.checkpoint_path.is_file():
            self._checkpoint()
        # A fault knob for the resume tests: hard-exit mid-generation at
        # this generation index, as a kill between two checkpoints would.
        kill_at = env_int("REPRO_DSE_KILL_AT", default=None, minimum=0)
        ran = 0
        while self.completed < self.spec.generations:
            gen = self.completed
            proposals = self._strategy.propose(
                self.spec.space, gen, self.spec.seed, self._elites(),
                self.seen, self.spec.population)
            if not proposals:
                # Space exhausted: nothing left to propose, ever.
                self.completed = self.spec.generations
                self._checkpoint()
                break

            t0 = time.perf_counter()
            keys, configs, predicted, areas, powers = \
                self._predict(proposals)
            self.timings["predict_seconds"] += time.perf_counter() - t0

            promoted = self._promote(predicted, areas, powers)
            if kill_at is not None and gen == kill_at:
                os._exit(137)  # the REPRO_DSE_KILL_AT fault: die mid-gen

            to_sim = [i for i in promoted if keys[i] not in self.archive]
            t0 = time.perf_counter()
            self._simulate(gen, to_sim, proposals, keys, configs,
                           predicted, areas, powers, max_workers)
            self.timings["simulate_seconds"] += time.perf_counter() - t0

            self.seen.update(keys)
            self.gen_stats.append({
                "generation": gen,
                "proposed": len(proposals),
                "promoted": len(promoted),
                "simulated": len(to_sim),
                "archive": len(self.archive),
                "frontier": len(self.frontier()),
            })
            self.completed = gen + 1
            self._checkpoint()
            ran += 1
            if stop_after is not None and ran >= stop_after:
                break
        return self.frontier_payload()

    def _predict(self, proposals: Sequence[Assignment]):
        """One feature matrix and one model call for the generation."""
        space = self.spec.space
        keys = [space.candidate_key(a) for a in proposals]
        configs = [space.decode(a, key) for a, key in zip(proposals, keys)]
        columns = config_feature_columns(configs)
        blocks = [table.feature_matrix(columns) for table in self._tables]
        stacked = np.vstack(blocks)
        per_layer = self.predictor.predict(stacked)
        weighted = np.zeros(len(configs), dtype=np.float64)
        offset = 0
        for entry, table, block in zip(space.mix, self._tables, blocks):
            rows = block.shape[0]
            model_cycles = per_layer[offset:offset + rows] \
                .reshape(len(configs), table.n_layers).sum(axis=1)
            weighted += entry.weight * model_cycles
            offset += rows
        areas = design_area_columns(columns, self.spec.node_nm)
        powers = design_power_columns(columns, self.spec.node_nm)
        return keys, configs, weighted, areas, powers

    def _promote(self, predicted: np.ndarray, areas: np.ndarray,
                 powers: np.ndarray) -> List[int]:
        """Predicted-Pareto-frontier + epsilon-window promotion.

        A candidate's *envelope* is the lowest predicted cycle count
        among all points — this generation's batch plus the whole
        archive (at its stored predictions, so resume sees the same
        envelope) — whose area and rated power are both no worse.  The
        candidate is promoted when its own prediction is within
        ``(1 + epsilon)`` of that envelope, i.e. it is on or near the
        predicted Pareto frontier over (cycles, area, power).  Strata
        the predictor can already tell are dominated (say, a higher
        clock at the same area: more power *and* more bus-bound cycles)
        contribute nothing, so the whole simulation budget concentrates
        on strata that can actually reach the frontier.

        Promotions are ordered by slack (prediction over envelope),
        tie-broken by prediction then batch index, and capped at
        ``max_promote``; at least ``top_k`` candidates are always
        promoted so a mistrained predictor cannot starve the search.
        """
        pred = np.asarray(predicted, dtype=np.float64)
        area = np.asarray(areas, dtype=np.float64)
        power = np.asarray(powers, dtype=np.float64)
        if self.archive:
            records = [self.archive[k] for k in sorted(self.archive)]
            pred = np.concatenate([pred, [r["predicted_cycles"]
                                          for r in records]])
            area = np.concatenate([area, [r["objectives"][1]
                                          for r in records]])
            power = np.concatenate([power, [r["objectives"][2]
                                            for r in records]])
        ranked: List[Tuple[float, float, int]] = []
        for i in range(len(predicted)):
            mask = (area <= area[i]) & (power <= power[i])
            envelope = float(pred[mask].min())  # <= pred[i]: mask has i
            ranked.append((float(pred[i]) / envelope, float(pred[i]), i))
        ranked.sort()
        window = [r for r in ranked if r[0] <= 1.0 + self.spec.epsilon]
        if len(window) < self.spec.top_k:
            window = ranked[:self.spec.top_k]
        return [idx for _, _, idx in window[:self.spec.max_promote]]

    def _simulate(self, gen: int, to_sim: List[int],
                  proposals: Sequence[Assignment], keys: List[str],
                  configs: List[CoreConfig], predicted: np.ndarray,
                  areas: np.ndarray, powers: np.ndarray,
                  max_workers: Optional[int]) -> None:
        import warnings

        from ..bench.supervisor import SweepPolicy, supervise
        from ..errors import DegradedSweepWarning

        mix = self.spec.space.mix
        jobs = [(entry.model, entry.kwargs_dict, configs[i])
                for i in to_sim for entry in mix]
        outcome = supervise(jobs, _simulate_job, max_workers=max_workers,
                            policy=SweepPolicy.from_env())
        results = outcome.results
        for slot, i in enumerate(to_sim):
            block = results[slot * len(mix):(slot + 1) * len(mix)]
            if any(c is None for c in block):
                # A quarantined job leaves this candidate without a full
                # mix measurement: drop it from the archive (it can be
                # re-proposed and re-promoted later) instead of poisoning
                # the search with partial cycles.
                warnings.warn(
                    f"DSE candidate {keys[i][:16]} dropped from generation "
                    f"{gen}: simulation quarantined after retries",
                    DegradedSweepWarning, stacklevel=2)
                continue
            per_model = [float(c) for c in block]
            cycles = mix_weighted_cycles(mix, per_model)
            self.archive[keys[i]] = {
                "assignment": dict(proposals[i]),
                "generation": gen,
                "mix_cycles": per_model,
                "predicted_cycles": float(predicted[i]),
                "objectives": [cycles, float(areas[i]), float(powers[i])],
            }

    # -- frontier -------------------------------------------------------------

    def _elites(self) -> List[Assignment]:
        return [self.archive[key]["assignment"]
                for _, members in self.frontier() for key in members]

    def frontier(self):
        keys = sorted(self.archive)
        objs = [self.archive[k]["objectives"] for k in keys]
        return frontier_groups(keys, objs)

    def stats(self) -> dict:
        simulated = sum(g["simulated"] for g in self.gen_stats)
        proposed = sum(g["proposed"] for g in self.gen_stats)
        size = self.spec.space.size()
        return {
            "space_size": size,
            "proposed": proposed,
            "predicted": proposed,
            "simulated": simulated,
            "simulated_over_candidates": (simulated / proposed
                                          if proposed else 0.0),
            "simulated_over_space": simulated / size,
        }

    def frontier_payload(self) -> dict:
        """The deterministic frontier artifact (content-keyed; no
        manifest, no wall times — byte-identical across resumes)."""
        payload = {
            "schema": FRONTIER_SCHEMA,
            "run_key": self._run_key,
            "spec": self.spec.to_dict(),
            "completed_generations": self.completed,
            "stats": self.stats(),
            "generations": list(self.gen_stats),
            "frontier": [
                {
                    "objectives": list(vec),
                    "members": [
                        {
                            "key": key,
                            "assignment": self.archive[key]["assignment"],
                            "mix_cycles": self.archive[key]["mix_cycles"],
                            "generation": self.archive[key]["generation"],
                        }
                        for key in members
                    ],
                }
                for vec, members in self.frontier()
            ],
        }
        payload["content_key"] = hashlib.sha256(
            _canonical(payload).encode()).hexdigest()
        return payload

    def write_frontier(self, path=None) -> Path:
        path = Path(path) if path is not None else self.frontier_path
        _atomic_write(path, json.dumps(self.frontier_payload(), indent=2,
                                       sort_keys=True) + "\n")
        return path

    # -- checkpointing --------------------------------------------------------

    def _checkpoint(self) -> None:
        from ..profiling.manifest import RunManifest

        sections = {
            "completed_generations": self.completed,
            "seen": sorted(self.seen),
            "archive": self.archive,
            "generations": self.gen_stats,
            # Provenance only: the single volatile section, excluded
            # from run/content keys and from resume-identity checks.
            "manifest": RunManifest.collect(
                model=",".join(e.label for e in self.spec.space.mix),
                config=self.spec.space.base_name,
                extras={"dse": self.spec.space.name}).to_dict(),
        }
        # Compact, so json takes its C encoder (an indent forces the
        # pure-Python one); resume reads either form.  The bytes are
        # ``_canonical`` of the whole payload.
        _atomic_write(self.checkpoint_path,
                      _splice_sorted(self._fixed_sections, sections) + "\n")


# -- exhaustive reference -----------------------------------------------------

def brute_force_frontier(space: SearchSpace, node_nm: float = 7.0,
                         max_workers: Optional[int] = None):
    """Simulate *every* point of a (small) space; the exactness oracle.

    Returns ``(frontier, n_points)`` with the frontier in the same
    grouped form the engine emits, so the smoke gate compares the two
    directly.
    """
    points = list(space.points())
    keys = [space.candidate_key(a) for a in points]
    configs = [space.decode(a, key) for a, key in zip(points, keys)]
    columns = config_feature_columns(configs)
    areas = design_area_columns(columns, node_nm)
    powers = design_power_columns(columns, node_nm)

    from ..bench.runner import run_sweep

    mix = space.mix
    jobs = [(entry.model, entry.kwargs_dict, config)
            for config in configs for entry in mix]
    results = run_sweep(jobs, _simulate_job, max_workers=max_workers)
    objs = []
    for i in range(len(points)):
        per_model = [float(c) for c in
                     results[i * len(mix):(i + 1) * len(mix)]]
        objs.append([mix_weighted_cycles(mix, per_model),
                     float(areas[i]), float(powers[i])])
    return frontier_groups(keys, objs), len(points)
