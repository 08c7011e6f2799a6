"""Batched candidate feature extraction: byte-identical to the scalar oracle.

The DSE fast tier rests on the feature extractor (``LayerTable``, and
``candidate_feature_matrix``/``model_feature_matrix`` around it)
producing the exact bits the per-config ``layer_features`` loop of
``tests/perf/features_oracle.py`` would, for any mix of design points —
including the Table 5 N/A fabric (NaN column) and the knob grids the
search perturbs.  Any drift here silently changes every
prediction, shortlist, and frontier, so equality is asserted on raw
bytes, not almost-equal.
"""

import numpy as np
import pytest

from repro.compiler.graph_engine import _im2col_scales
from repro.config import (ASCEND, ASCEND_LITE, ASCEND_MAX, ASCEND_TINY,
                          core_config_by_name)
from repro.dtypes import INT4, INT8
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.models import build_model
from repro.perf.predictor.dataset import _DEFAULT_CORES, design_point_variants
from repro.perf.predictor.features import (CONFIG_COLUMN_NAMES, LayerTable,
                                           candidate_feature_matrix,
                                           config_feature_columns,
                                           feature_names,
                                           model_feature_matrix)
from repro.perf.predictor.model import CyclePredictor
from tests.perf.features_oracle import oracle_matrix
from tests.scripts import load_script

_POOL_MODELS = sorted(
    {model for model, _ in load_script("perfbench/workloads.py").COMPILE_POOL})


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


class TestLayerTable:
    """One table per model, built once and priced for any batch."""

    @pytest.mark.parametrize("model", _POOL_MODELS)
    def test_compile_pool_model(self, model):
        graph = build_model(model)
        pairs = list(graph.grouped_workloads())
        scales = _im2col_scales(graph)
        table = LayerTable(pairs, scales)
        defaults = [core_config_by_name(core) for core in _DEFAULT_CORES]
        for configs in (defaults,
                        design_point_variants(ASCEND_LITE, 16, seed=7)):
            got = table.feature_matrix(config_feature_columns(configs))
            assert got.tobytes() == \
                oracle_matrix(pairs, configs, scales).tobytes()

    def test_layer_shapes_and_unlimited_fabric(self):
        """Layers without GEMMs (vector-only and empty ones, first,
        between and last), layers of several GEMMs of mixed dtype and
        count, and a core with no fabric limit (NaN column)."""
        vec = (VectorWork(elems=4096, passes=3), VectorWork(elems=17))
        pairs = [
            ("vector", OpWorkload("vector", vector=vec, input_bytes=8192,
                                  output_bytes=8192)),
            ("several", OpWorkload(
                "several",
                gemms=(GemmWork(3, 1000, 17), GemmWork(64, 64, 64, INT8, 4),
                       GemmWork(1, 7, 5000, INT4, 2),
                       GemmWork(64, 64, 64, count=4)),
                vector=vec, weight_bytes=123457, input_bytes=99,
                output_bytes=7)),
            ("empty", OpWorkload("empty")),
            ("one", OpWorkload("one", gemms=(GemmWork(31, 33, 35),),
                               input_bytes=4096, output_bytes=1)),
            ("several", OpWorkload(
                "several", gemms=(GemmWork(16, 16, 16), GemmWork(8, 9, 10)))),
            ("tail", OpWorkload("tail", vector=vec)),
        ]
        scales = {"several": 0.25, "one": 1 / 9}
        configs = [ASCEND_TINY, ASCEND_MAX, ASCEND_LITE, ASCEND] \
            + design_point_variants(ASCEND_TINY, 6, seed=2)
        columns = config_feature_columns(configs)
        assert np.isnan(columns["llc_bw_per_core"][0])
        got = LayerTable(pairs, scales).feature_matrix(columns)
        assert got.tobytes() == oracle_matrix(pairs, configs, scales).tobytes()

    def test_one_table_prices_every_batch(self, gesture_pairs):
        pairs, scales = gesture_pairs
        table = LayerTable(pairs, scales)
        for seed in range(3):
            configs = design_point_variants(ASCEND_MAX, 5 + seed, seed=seed)
            got = table.feature_matrix(config_feature_columns(configs))
            assert got.tobytes() == \
                oracle_matrix(pairs, configs, scales).tobytes()
        assert table.feature_matrix(config_feature_columns([])).shape == \
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
