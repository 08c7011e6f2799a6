"""Triage semantics: what gets simulated, what gets skipped, and the
strict ``REPRO_PREDICT`` switch.

The shortlist policy is pure code (no model involved), so it is tested
exhaustively here with hand-built predictions; the end-to-end accuracy
and speedup gates live in ``make predict-smoke`` and
``benchmarks/bench_predictor_triage.py``.
"""

import inspect
import json

import numpy as np
import pytest

from repro.bench import shortlist_indices
from repro.errors import ConfigError
from repro.perf.predictor import cli, triage_design_sweep
from repro.perf.predictor.settings import predict_enabled
from repro.perf.predictor.train import save_artifact, train_predictor

from tests.perf.test_predictor_train import _synthetic_dataset


class TestShortlist:
    def test_top_k_keeps_k_best(self):
        assert shortlist_indices([5.0, 1.0, 3.0, 2.0], top_k=2,
                                 epsilon=0.0) == [1, 3]

    def test_epsilon_window_widens_past_top_k(self):
        # best=100; 104 and 105 are within 5%, 200 is not.
        predicted = [200.0, 104.0, 100.0, 105.0]
        assert shortlist_indices(predicted, top_k=1, epsilon=0.05) == [1, 2, 3]

    def test_ties_resolve_by_index(self):
        assert shortlist_indices([7.0, 7.0, 7.0], top_k=1,
                                 epsilon=0.0) == [0, 1, 2]
        # Strictly distinct ties below the window: lowest index wins.
        assert shortlist_indices([7.0, 7.0, 8.0], top_k=1, epsilon=0.0) \
            == [0, 1]

    def test_k_larger_than_jobs(self):
        assert shortlist_indices([3.0, 1.0], top_k=10, epsilon=0.0) == [0, 1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            shortlist_indices([1.0], top_k=0, epsilon=0.0)
        with pytest.raises(ValueError):
            shortlist_indices([1.0], top_k=1, epsilon=-0.1)

    def test_empty(self):
        assert shortlist_indices([], top_k=3, epsilon=0.1) == []


class TestShortlistBoundaryTies:
    """Exact ties at the epsilon-window boundary: the regression suite.

    Equal predicted cycles must shortlist identically (one value-based
    comparison against one float64 cutoff) and in stable index order,
    no matter which container or float width the predictions arrive in.
    """

    def test_exact_ties_at_window_boundary_all_shortlist(self):
        # cutoff = 100 * 1.05; every 105.0 ties exactly at the boundary
        # and all of them must shortlist, in index order.
        predicted = [100.0, 105.0, 105.0, 105.0, 200.0]
        assert shortlist_indices(predicted, top_k=1,
                                 epsilon=0.05) == [0, 1, 2, 3]

    def test_exactly_representable_cutoff_keeps_boundary_ties(self):
        # 100 * 1.125 == 112.5 exactly in binary floating point: the
        # boundary candidates compare equal to the cutoff, not near it.
        predicted = [100.0, 112.5, 113.0, 112.5]
        assert shortlist_indices(predicted, top_k=1,
                                 epsilon=0.125) == [0, 1, 3]

    def test_ties_spanning_top_k_boundary_prefer_low_index(self):
        # Three exact ties above the window competing for one remaining
        # top-k slot: the stable order hands it to the lowest index.
        predicted = [1.0, 5.0, 5.0, 5.0]
        assert shortlist_indices(predicted, top_k=2, epsilon=0.0) == [0, 1]

    def test_all_equal_scores_keep_everything(self):
        assert shortlist_indices([7.0] * 4, top_k=2,
                                 epsilon=0.0) == [0, 1, 2, 3]

    def test_container_and_dtype_do_not_change_the_shortlist(self):
        # The pre-fix code computed the cutoff in the input's dtype, so
        # a float32 prediction vector could split exact boundary ties
        # differently from the identical float64/list input.
        base = [100.0, 105.0, 105.0, 105.0, 104.99999, 200.0, 100.0]
        expect = shortlist_indices(base, top_k=1, epsilon=0.05)
        assert expect == shortlist_indices(np.asarray(base), 1, 0.05)
        f32 = np.asarray(base, dtype=np.float32)
        assert shortlist_indices(f32, 1, 0.05) == \
            shortlist_indices(np.asarray(f32, dtype=np.float64), 1, 0.05)

    def test_returns_plain_ints_ascending(self):
        out = shortlist_indices(np.asarray([3.0, 1.0, 1.0]), top_k=1,
                                epsilon=0.0)
        assert out == [1, 2]
        assert all(type(i) is int for i in out)


class TestEnvKnobs:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_PREDICT", raising=False)
        assert predict_enabled() is False
        # The shortlist size has one source: the sweep's own defaults.
        params = inspect.signature(triage_design_sweep).parameters
        assert (params["top_k"].default, params["epsilon"].default) \
            == (8, 0.05)

    def test_enable_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREDICT", "1")
        assert predict_enabled() is True

    @pytest.mark.parametrize("name, value", [
        ("REPRO_PREDICT", "maybe"),
    ])
    def test_garbage_is_a_config_error(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ConfigError):
            predict_enabled()


class TestSweepCliOut:
    """``python -m repro.perf.predictor sweep --out``: one row per
    candidate, the shortlist flagged, beside the gate."""

    def test_out_holds_gate_and_one_row_per_candidate(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        artifact = save_artifact(
            train_predictor(dataset=_synthetic_dataset(), rounds=5),
            tmp_path / "model.json")
        reports = []
        sweep = cli.triage_design_sweep

        def _recording(*args, **kwargs):
            reports.append(sweep(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "triage_design_sweep", _recording)
        out = tmp_path / "sweep.json"
        assert cli.main(["sweep", "--artifact", str(artifact),
                         "--candidates", "6", "--top-k", "2",
                         "--epsilon", "0", "--workers", "1",
                         "--out", str(out)]) == 0
        assert f"report: {out}" in capsys.readouterr().out

        [report] = reports
        written = json.loads(out.read_text())
        assert set(written) == {"gate", "rows"}
        assert written["gate"] == report.gate
        assert [row["config"] for row in written["rows"]] == report.candidates
        flagged = [i for i, row in enumerate(written["rows"])
                   if row["in_shortlist"]]
        assert flagged == sorted(report.shortlist)
        assert len(flagged) == 2
        for i in flagged:
            assert written["rows"][i]["simulated_cycles"] \
                == report.simulated[i]
