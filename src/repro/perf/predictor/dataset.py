"""Training data: model zoo x design-point variants, via the sweep harness.

A training job is one (model, design point) pair; the worker compiles
the model through :meth:`~repro.compiler.GraphEngine.compile_pairs` from
its memoized workloads, scales and key text (the DSE search's mix memo,
:func:`repro.dse.engine._mix_model`) — so the persistent compile cache
and the in-memory tiers make repeated collections cheap — and returns
one (feature row, simulated cycles) sample per layer group.  Jobs fan
out over the supervised sweep layer (:func:`repro.bench.supervise` —
per-job retry/timeout/quarantine and optional
``REPRO_SWEEP_CHECKPOINT`` resume with zero re-simulation; a
quarantined job drops its samples with a structured warning instead of
killing the collection), results come back in job order, and every
random choice flows from one seeded generator, so a (corpus, cores,
variants, seed) tuple always yields the identical dataset.

Design-point variants perturb the Table 5 axes the DSE surface sweeps —
clock, L1/UB bus widths, fabric bandwidth per core, buffer capacities,
and the cube's m dimension (the Section 3.2 batch-1 knob) — around a
named base core.  The same generator feeds training diversity and the
candidate sweeps, so the predictor is evaluated on the distribution it
is used on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...config.core_configs import CoreConfig, CubeShape, core_config_by_name
from ...graph.workload import OpWorkload
from .features import feature_names, model_feature_matrix

__all__ = [
    "Dataset",
    "FULL_CORPUS",
    "SMOKE_CORPUS",
    "workload_class",
    "design_point_variants",
    "collect_dataset",
]

# (model name, builder kwargs) — the sweep surface the predictor trains
# on.  Classes (see workload_class) slice the error report.
FULL_CORPUS: Tuple[Tuple[str, dict], ...] = (
    ("gesture", {}),
    ("wide_deep", {}),
    ("mobilenet_v2", {"batch": 1}),
    ("resnet18", {"batch": 1}),
    ("resnet50", {"batch": 1}),
    ("bert-base", {"batch": 1, "seq": 128}),
)

# The CI smoke corpus: small models only, a few seconds end to end.
SMOKE_CORPUS: Tuple[Tuple[str, dict], ...] = (
    ("gesture", {}),
    ("wide_deep", {}),
    ("mobilenet_v2", {"batch": 1}),
)

_CLASS_BY_MODEL = {
    "gesture": "tiny-cnn",
    "mobilenet_v2": "cnn",
    "resnet18": "cnn",
    "resnet50": "cnn",
    "vgg16": "cnn",
    "isp_unet": "cnn",
    "detector": "cnn",
    "siamese": "cnn",
    "bert-base": "transformer",
    "bert-large": "transformer",
    "wide_deep": "mlp",
    "pointnet": "mlp",
}

_DEFAULT_CORES = ("ascend", "ascend-max", "ascend-lite")


def workload_class(model_name: str) -> str:
    """Coarse workload class used for per-class error reporting."""
    return _CLASS_BY_MODEL.get(model_name, "other")


@dataclass
class Dataset:
    """Aligned per-layer samples: features, targets, and slicing labels."""

    X: np.ndarray                 # (n, n_features) float64
    cycles: np.ndarray            # (n,) float64 simulated layer cycles
    classes: List[str]            # workload class per sample
    labels: List[str]             # "model@config/layer" per sample

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


# -- design-point variants ----------------------------------------------------

_FREQ_FACTORS = (0.5, 0.75, 1.0, 1.25, 1.5)
_BUS_FACTORS = (0.25, 0.5, 1.0, 2.0)
_LLC_FACTORS = (0.5, 1.0, 2.0, 4.0)
_BUFFER_FACTORS = (0.5, 1.0, 2.0)
_CUBE_M_CHOICES = (4, 8, 16)


def design_point_variants(base: CoreConfig, count: int, seed: int,
                          include_base: bool = True,
                          vary_cube: bool = True) -> List[CoreConfig]:
    """``count`` seeded Table-5-style perturbations of ``base``.

    Deterministic in (base.name, count, seed, flags).  Variants are
    named ``<base>-v<i>`` so cache keys, labels, and reports stay
    readable; the physical fields are what the feature extractor reads,
    so renaming never aliases two distinct designs.
    """
    rng = np.random.default_rng([seed, len(base.name), count])
    variants: List[CoreConfig] = [base] if include_base else []
    for i in range(count):
        kwargs: Dict[str, object] = {
            "name": f"{base.name}-v{i}",
            "frequency_hz": base.frequency_hz * rng.choice(_FREQ_FACTORS),
            "l1_to_l0a_bw": base.l1_to_l0a_bw * rng.choice(_BUS_FACTORS),
            "l1_to_l0b_bw": base.l1_to_l0b_bw * rng.choice(_BUS_FACTORS),
            "ub_bw": base.ub_bw * rng.choice(_BUS_FACTORS),
            "l1_bytes": int(base.l1_bytes * rng.choice(_BUFFER_FACTORS)),
            "ub_bytes": int(base.ub_bytes * rng.choice(_BUFFER_FACTORS)),
        }
        if base.llc_bw_per_core is not None:
            kwargs["llc_bw_per_core"] = (base.llc_bw_per_core
                                         * rng.choice(_LLC_FACTORS))
        if vary_cube:
            kwargs["cube"] = CubeShape(int(rng.choice(_CUBE_M_CHOICES)),
                                       base.cube.k, base.cube.n)
        variants.append(dataclasses.replace(base, **kwargs))
    return variants


# -- collection ---------------------------------------------------------------

def _supported(pairs: Sequence[Tuple[str, OpWorkload]],
               config: CoreConfig) -> bool:
    """Whether every GEMM dtype in the model runs on this core's cube."""
    return all(config.supports_dtype(g.dtype)
               for _, work in pairs for g in work.gemms)


def _collect_job(job: Tuple[str, dict, CoreConfig]
                 ) -> Tuple[List[List[float]], List[float], List[str]]:
    """Sweep worker: compile one (model, config) pair, emit its samples."""
    from ...compiler import GraphEngine
    # Imported here: dse.engine imports this package's features module.
    from ...dse.engine import _mix_model

    model_name, kwargs, config = job
    mix = _mix_model(model_name, kwargs)
    compiled = GraphEngine(config).compile_pairs(
        mix.name, mix.pairs, mix.scales, mix.layers_text)
    rows = model_feature_matrix(mix.pairs, config, mix.scales).tolist()
    targets = [float(layer.cycles) for layer in compiled.layers]
    labels = [f"{model_name}@{config.name}/{group}" for group, _ in mix.pairs]
    return rows, targets, labels


def collect_dataset(corpus: Optional[Sequence[Tuple[str, dict]]] = None,
                    cores: Optional[Sequence[str]] = None,
                    variants_per_core: int = 12,
                    seed: int = 0,
                    max_workers: Optional[int] = None) -> Dataset:
    """Simulate the corpus across design-point variants, in parallel.

    Unsupported (model, core) pairs — e.g. fp16 models on the int8-only
    Tiny cube — are filtered out up front rather than left to fail in a
    worker.
    """
    from ...bench.supervisor import SweepPolicy, supervise
    from ...dse.engine import _mix_model

    corpus = list(corpus if corpus is not None else FULL_CORPUS)
    core_names = list(cores if cores is not None else _DEFAULT_CORES)

    jobs: List[Tuple[str, dict, CoreConfig]] = []
    job_classes: List[str] = []
    for model_name, kwargs in corpus:
        # Fills the mix memo here, so fork workers inherit each model.
        pairs = _mix_model(model_name, kwargs).pairs
        for core_name in core_names:
            base = core_config_by_name(core_name)
            for config in design_point_variants(base, variants_per_core,
                                                seed=seed):
                if not _supported(pairs, config):
                    continue
                jobs.append((model_name, kwargs, config))
                job_classes.append(workload_class(model_name))

    outcome = supervise(jobs, _collect_job, max_workers=max_workers,
                        policy=SweepPolicy.from_env())
    rows: List[List[float]] = []
    targets: List[float] = []
    classes: List[str] = []
    labels: List[str] = []
    for cls, result in zip(job_classes, outcome.results):
        if result is None:
            # Quarantined by the supervisor (reported there): training
            # proceeds on the surviving samples rather than dying.
            continue
        job_rows, job_targets, job_labels = result
        rows.extend(job_rows)
        targets.extend(job_targets)
        classes.extend([cls] * len(job_targets))
        labels.extend(job_labels)
    X = (np.asarray(rows, dtype=np.float64) if rows
         else np.empty((0, len(feature_names())), dtype=np.float64))
    return Dataset(X=X, cycles=np.asarray(targets, dtype=np.float64),
                   classes=classes, labels=labels)
