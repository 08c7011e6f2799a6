"""Feature-extraction contract: stable schema, byte-identical runs.

The fast tier's correctness rests on two properties pinned here:

* the feature schema is a versioned, ordered, collision-free name list —
  artifacts written under one schema refuse to load under another;
* extraction is fully deterministic: the same (workload, design point)
  yields byte-identical feature matrices across repeated runs *and*
  across fresh interpreter processes (dict order, interning order, and
  accumulated global state must not leak into the bytes).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.compiler.graph_engine import _im2col_scales
from repro.config import ASCEND_LITE, ASCEND_MAX
from repro.models import build_model
from repro.perf.predictor import (FEATURE_SCHEMA_VERSION, feature_names,
                                  features_digest, model_feature_matrix)
from repro.perf.predictor.features import (counters_feature_columns,
                                           counters_feature_matrix)
from repro.profiling import PerfCounters


def _gesture_matrix():
    """Every layer of a freshly built gesture graph on Ascend-Lite."""
    graph = build_model("gesture")
    return model_feature_matrix(graph.grouped_workloads(), ASCEND_LITE,
                                _im2col_scales(graph))


class TestSchema:
    def test_names_are_unique_and_ordered(self):
        names = feature_names()
        assert len(names) == len(set(names))
        assert names is feature_names()  # stable object, stable order

    def test_schema_version_pinned(self):
        # Bump FEATURE_SCHEMA_VERSION whenever the name list changes;
        # this pin forces that bump to be a conscious act.
        assert FEATURE_SCHEMA_VERSION == 1
        assert len(feature_names()) == 48

    def test_row_width_matches_names(self):
        graph = build_model("gesture")
        first, *_ = list(graph.grouped_workloads())
        [row] = model_feature_matrix([first], ASCEND_LITE)
        assert row.shape == (len(feature_names()),)
        assert row.dtype == np.float64
        assert np.isfinite(row).all()

    def test_config_changes_config_features_only_for_same_workload(self):
        graph = build_model("gesture")
        first, *_ = list(graph.grouped_workloads())
        [a] = model_feature_matrix([first], ASCEND_LITE)
        [b] = model_feature_matrix([first], ASCEND_MAX)
        assert not np.array_equal(a, b)


class TestDeterminism:
    def test_two_fresh_extractions_are_byte_identical(self):
        """Rebuild the graph from scratch both times: interning tables,
        memo caches, and dict insertion orders must not affect bytes."""
        first, second = _gesture_matrix(), _gesture_matrix()
        assert first.tobytes() == second.tobytes()
        assert features_digest(first) == features_digest(second)

    def test_fresh_process_matches_this_process(self):
        """The regression the satellite asks for: a separate interpreter
        (fresh interning, fresh caches, fresh hash randomization)
        produces the identical digest."""
        local = features_digest(_gesture_matrix())
        code = (
            "from repro.compiler.graph_engine import _im2col_scales\n"
            "from repro.config import ASCEND_LITE\n"
            "from repro.models import build_model\n"
            "from repro.perf.predictor.features import (features_digest,\n"
            "    model_feature_matrix)\n"
            "graph = build_model('gesture')\n"
            "print(features_digest(model_feature_matrix("
            "graph.grouped_workloads(), ASCEND_LITE, "
            "_im2col_scales(graph))))\n")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONHASHSEED="random"))
        assert out.stdout.strip() == local

    def test_digest_is_content_addressed(self):
        matrix = _gesture_matrix()
        tweaked = matrix.copy()
        tweaked[0, 0] += 1.0
        assert features_digest(matrix) != features_digest(tweaked)


class TestCountersColumns:
    def _scrambled_pair(self):
        """Two counters with identical content, opposite insertion order."""
        a, b = PerfCounters(), PerfCounters()
        items = [("MTE2->M#0", [3, 70]), ("V->MTE3#1", [1, 9]),
                 ("M->V#2", [5, 40])]
        kinds = [("cube", 4), ("vector", 7), ("copy", 2)]
        routes = [("GM->L1", 1024), ("L1->L0A", 512), ("UB->GM", 64)]
        for target, payload in ((a, items), (b, reversed(items))):
            for key, value in payload:
                target.flag_waits[key] = list(value)
        for target, payload in ((a, kinds), (b, reversed(kinds))):
            for key, value in payload:
                target.kind_events[key] = value
        for target, payload in ((a, routes), (b, reversed(routes))):
            for key, value in payload:
                target.route_bytes[key] = value
        return a, b

    def test_sorted_tables_make_insertion_order_irrelevant(self):
        a, b = self._scrambled_pair()
        assert list(counters_feature_columns(a)) == \
            list(counters_feature_columns(b))
        assert counters_feature_columns(a) == counters_feature_columns(b)

    def test_table_segments_are_sorted(self):
        a, _ = self._scrambled_pair()
        cols = list(counters_feature_columns(a))
        for prefix in ("kind[", "route[", "waits["):
            segment = [c for c in cols if c.startswith(prefix)]
            assert segment == sorted(segment), prefix

    def test_matrix_alignment_fills_missing_columns(self):
        a, b = self._scrambled_pair()
        del b.kind_events["copy"]
        names, matrix = counters_feature_matrix([a, b])
        assert names == sorted(names)
        j = names.index("kind[copy]")
        assert matrix[0, j] == 2.0
        assert matrix[1, j] == 0.0
        # Same multiset, opposite iteration order: identical output.
        names2, matrix2 = counters_feature_matrix([b, a])
        assert names2 == names
        assert np.array_equal(matrix2, matrix[::-1])
