"""Learned cycle predictor: the fast tier in front of the event engine.

NeuroScalar-style triage (PAPERS.md): a small pure-numpy regression
model — ridge on log-domain features plus gradient-boosted stumps on the
residual — trained on simulator runs predicts per-layer cycle counts
from workload structure and Table 5 design-point parameters at roughly
three orders of magnitude the event engine's speed.  Sweeps and
design-space exploration use it to rank candidate configurations and
fall back to the event engine only for a shortlist; published figures
and tables never consume predicted numbers (the predictor is triage
only, gated by the ``predicted_vs_simulated`` report).

Layout:

* :mod:`features` — deterministic per-layer feature extraction
  (schema-versioned; byte-identical across runs);
* :mod:`model` — the pure-numpy :class:`CyclePredictor`;
* :mod:`dataset` — training corpus x design-point variant collection
  through the parallel sweep harness and compile cache;
* :mod:`train` — training harness, artifact save/load with
  :class:`~repro.profiling.manifest.RunManifest` provenance;
* :mod:`sweep` — triaged design-point sweeps and the
  ``predicted_vs_simulated`` gate;
* :mod:`settings` — the ``REPRO_PREDICT`` switch;
* CLI: ``python -m repro.perf.predictor {train,sweep,smoke}``.
"""

from .features import (FEATURE_SCHEMA_VERSION, feature_names,
                       features_digest, model_feature_matrix)
from .model import CyclePredictor, mape, p95_relative_error
from .dataset import (Dataset, collect_dataset, design_point_variants,
                      FULL_CORPUS, SMOKE_CORPUS, workload_class)
from .train import (TrainReport, train_predictor, save_artifact,
                    load_artifact, try_load_artifact, default_artifact_path)
from .settings import predict_enabled
from .sweep import TriageSweepReport, triage_design_sweep

__all__ = [
    "FEATURE_SCHEMA_VERSION",
    "feature_names",
    "features_digest",
    "model_feature_matrix",
    "CyclePredictor",
    "mape",
    "p95_relative_error",
    "Dataset",
    "collect_dataset",
    "design_point_variants",
    "FULL_CORPUS",
    "SMOKE_CORPUS",
    "workload_class",
    "TrainReport",
    "train_predictor",
    "save_artifact",
    "load_artifact",
    "try_load_artifact",
    "default_artifact_path",
    "predict_enabled",
    "TriageSweepReport",
    "triage_design_sweep",
]
