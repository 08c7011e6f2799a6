"""Batched candidate feature extraction: byte-identical to the scalar oracle.

The DSE fast tier rests on ``candidate_feature_matrix`` producing the
exact bits the per-config ``layer_features`` loop of
``tests/perf/features_oracle.py`` would, for any mix of design points —
including the Table 5 N/A fabric (NaN column) and the knob grids the
search perturbs.  Any drift here silently changes every
prediction, shortlist, and frontier, so equality is asserted on raw
bytes, not almost-equal.
"""

import numpy as np
import pytest

from repro.compiler.graph_engine import _im2col_scales
from repro.config import ASCEND, ASCEND_LITE, ASCEND_MAX, ASCEND_TINY
from repro.models import build_model
from repro.perf.predictor.dataset import design_point_variants
from repro.perf.predictor.features import (CONFIG_COLUMN_NAMES,
                                           candidate_feature_matrix,
                                           config_feature_columns,
                                           feature_names,
                                           model_feature_matrix)
from repro.perf.predictor.model import CyclePredictor
from tests.perf.features_oracle import oracle_matrix


@pytest.fixture(scope="module")
def gesture_pairs():
    graph = build_model("gesture")
    return list(graph.grouped_workloads()), _im2col_scales(graph)


class TestConfigColumns:
    def test_column_schema(self):
        cols = config_feature_columns([ASCEND_LITE, ASCEND_MAX])
        assert set(cols) == set(CONFIG_COLUMN_NAMES)
        assert all(v.dtype == np.float64 and v.shape == (2,)
                   for v in cols.values())

    def test_unlimited_fabric_is_nan(self):
        cols = config_feature_columns([ASCEND_TINY])
        assert np.isnan(cols["llc_bw_per_core"][0])


class TestByteIdentity:
    def test_named_cores(self, gesture_pairs):
        pairs, scales = gesture_pairs
        configs = [ASCEND_LITE, ASCEND_MAX, ASCEND, ASCEND_TINY]
        batch = candidate_feature_matrix(
            pairs, config_feature_columns(configs), scales)
        assert batch.tobytes() == \
            oracle_matrix(pairs, configs, scales).tobytes()

    def test_seeded_variant_grid(self, gesture_pairs):
        """The distribution the DSE actually sweeps: seeded Table-5
        perturbations of a base core, including fractional frequencies
        and scaled buses/capacities."""
        pairs, scales = gesture_pairs
        configs = design_point_variants(ASCEND_LITE, 40, seed=3)
        batch = candidate_feature_matrix(
            pairs, config_feature_columns(configs), scales)
        reference = oracle_matrix(pairs, configs, scales)
        assert batch.shape == (len(configs) * len(pairs),
                               len(feature_names()))
        assert batch.tobytes() == reference.tobytes()

    def test_multi_model_layers(self):
        graph = build_model("mobilenet_v2", batch=1)
        pairs = list(graph.grouped_workloads())
        scales = _im2col_scales(graph)
        configs = design_point_variants(ASCEND_MAX, 8, seed=11)
        batch = candidate_feature_matrix(
            pairs, config_feature_columns(configs), scales)
        assert batch.tobytes() == \
            oracle_matrix(pairs, configs, scales).tobytes()

    def test_empty_inputs(self, gesture_pairs):
        pairs, scales = gesture_pairs
        none = candidate_feature_matrix(pairs, config_feature_columns([]),
                                        scales)
        assert none.shape == (0, len(feature_names()))
        empty = candidate_feature_matrix([],
                                         config_feature_columns([ASCEND]),
                                         None)
        assert empty.shape == (0, len(feature_names()))
        assert model_feature_matrix([], ASCEND).shape == \
            (0, len(feature_names()))


class TestModelFeatureMatrix:
    """The one-design-point batch that training and the serving
    predictor tier read."""

    def test_training_corpus_rows_match_oracle(self):
        # Every (model, design point) job collect_dataset runs for the
        # smoke corpus on the default cores, row for row.
        from repro.perf.predictor.dataset import (_DEFAULT_CORES,
                                                  SMOKE_CORPUS)
        from repro.config import core_config_by_name

        rows = 0
        for model_name, kwargs in SMOKE_CORPUS:
            graph = build_model(model_name, **kwargs)
            pairs = list(graph.grouped_workloads())
            scales = _im2col_scales(graph)
            for core in _DEFAULT_CORES:
                for config in design_point_variants(
                        core_config_by_name(core), 12, seed=0):
                    got = model_feature_matrix(pairs, config, scales)
                    assert got.tobytes() == oracle_matrix(
                        pairs, [config], scales).tobytes()
                    rows += len(got)
        assert rows > 1000

    def test_accepts_a_workload_iterator(self, gesture_pairs):
        pairs, _ = gesture_pairs
        got = model_feature_matrix(iter(pairs), ASCEND_MAX)
        assert got.tobytes() == oracle_matrix(pairs, [ASCEND_MAX]).tobytes()


class TestPredictModelCycles:
    def test_matches_per_config_sums(self, gesture_pairs):
        pairs, scales = gesture_pairs
        configs = design_point_variants(ASCEND_LITE, 12, seed=5)
        stack = candidate_feature_matrix(
            pairs, config_feature_columns(configs), scales)
        rng = np.random.default_rng(0)
        predictor = CyclePredictor(rounds=5).fit(
            rng.normal(size=(64, stack.shape[1])),
            np.exp(rng.normal(size=64) + 8.0))
        batched = predictor.predict_model_cycles(stack, len(configs))
        per_layer = predictor.predict(stack).reshape(len(configs),
                                                     len(pairs))
        assert np.array_equal(batched, per_layer.sum(axis=1))
        assert batched.shape == (len(configs),)

    def test_row_count_mismatch_raises(self):
        predictor = CyclePredictor(rounds=0)
        rng = np.random.default_rng(1)
        predictor.fit(rng.normal(size=(32, 4)), np.full(32, 100.0))
        with pytest.raises(ValueError):
            predictor.predict_model_cycles(rng.normal(size=(7, 4)), 3)
        with pytest.raises(ValueError):
            predictor.predict_model_cycles(rng.normal(size=(6, 4)), 0)
