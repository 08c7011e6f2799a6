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
