"""The search driver: exactness, promotion, checkpoint round trips.

One small real predictor is trained per module (seconds, warm compile
memo) and shared; the kill/resume byte-identity contract has its own
subprocess test in ``test_resume.py``.
"""

import hashlib
import json
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.dse import (DseEngine, Knob, MixEntry, SearchSpec, SearchSpace,
                       brute_force_frontier, space_by_name)
from repro.dse import engine as engine_module
from repro.errors import ConfigError
from repro.profiling import manifest as manifest_module


def _tiny_space():
    return SearchSpace(
        name="tiny", base_name="ascend-lite",
        knobs=(
            Knob("freq_factor", (0.75, 1.0)),
            Knob("l1a_factor", (0.5, 1.0)),
            Knob("ub_factor", (0.5, 1.0)),
        ),
        mix=(MixEntry.of("gesture"),))


@pytest.fixture(scope="module")
def predictor():
    from repro.perf.predictor.train import train_predictor

    return train_predictor(seed=0, corpus=[("gesture", {})],
                           cores=["ascend-lite"], variants_per_core=8,
                           rounds=10).predictor


def _spec(**overrides):
    kwargs = dict(space=_tiny_space(), population=6, generations=2,
                  top_k=2, epsilon=10.0, max_promote=8, seed=0)
    kwargs.update(overrides)
    return SearchSpec(**kwargs)


class TestSearchSpec:
    def test_run_key_is_deterministic_and_spec_sensitive(self):
        assert _spec().run_key() == _spec().run_key()
        assert _spec().run_key() != _spec(seed=1).run_key()
        assert _spec().run_key() != _spec(epsilon=0.5).run_key()

    def test_round_trip(self):
        spec = _spec(predictor_recipe={"variants": 8})
        clone = SearchSpec.from_dict(spec.to_dict())
        assert clone.run_key() == spec.run_key()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            _spec(population=0)
        with pytest.raises(ConfigError):
            _spec(strategy="gradient-descent")


class TestSearchRun:
    def test_wide_open_promotion_reproduces_brute_force(self, predictor,
                                                        tmp_path):
        engine = DseEngine(_spec(), predictor, tmp_path)
        engine.run(max_workers=2)
        brute, n_points = brute_force_frontier(_tiny_space(), max_workers=2)
        assert engine.frontier() == brute
        assert sum(g["simulated"] for g in engine.gen_stats) == n_points

    def test_gated_promotion_respects_the_budget(self, predictor, tmp_path):
        spec = _spec(epsilon=0.01, top_k=1, max_promote=2)
        engine = DseEngine(spec, predictor, tmp_path)
        engine.run(max_workers=2)
        stats = engine.stats()
        assert stats["proposed"] == 8          # space fully predicted
        assert stats["simulated"] <= 2 * spec.generations
        assert 0 < stats["simulated_over_space"] <= 0.5

    def test_stop_after_then_resume_is_byte_identical(self, predictor,
                                                      tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        straight = DseEngine(_spec(), predictor, a_dir)
        straight.run(max_workers=2)
        straight.write_frontier()

        halted = DseEngine(_spec(), predictor, b_dir)
        halted.run(max_workers=2, stop_after=1)
        assert halted.completed == 1
        resumed = DseEngine.resume(halted.checkpoint_path)
        assert len(resumed.archive) == len(halted.archive)
        resumed.run(max_workers=2)
        resumed.write_frontier()

        assert resumed.frontier_path.read_bytes() \
            == straight.frontier_path.read_bytes()
        assert resumed.frontier_payload()["content_key"] \
            == straight.frontier_payload()["content_key"]


class TestPromotion:
    """`_promote` in isolation, with synthetic predictions."""

    @pytest.fixture()
    def engine(self, predictor, tmp_path):
        return DseEngine(_spec(epsilon=0.1, top_k=1, max_promote=10),
                         predictor, tmp_path)

    def test_epsilon_window_within_one_stratum(self, engine):
        promoted = engine._promote(
            np.array([100.0, 105.0, 120.0, 130.0]),
            np.ones(4), np.ones(4))
        assert promoted == [0, 1]

    def test_dominated_stratum_is_pruned(self, engine):
        # Same area, double power, predictions 50% worse: the higher
        # -power stratum's envelope is the cheaper stratum, so none of
        # its candidates are within the window.
        promoted = engine._promote(
            np.array([100.0, 104.0, 150.0, 160.0]),
            np.ones(4), np.array([1.0, 1.0, 2.0, 2.0]))
        assert promoted == [0, 1]

    def test_frontier_stratum_survives_alongside_a_cheaper_one(self, engine):
        # The power-2 stratum predicts *faster* designs: both strata
        # keep their windows, ordered by slack then prediction.
        promoted = engine._promote(
            np.array([100.0, 104.0, 90.0, 130.0]),
            np.ones(4), np.array([1.0, 1.0, 2.0, 2.0]))
        assert promoted == [2, 0, 1]

    def test_top_k_floor_when_the_window_is_narrow(self, predictor,
                                                   tmp_path):
        engine = DseEngine(_spec(epsilon=0.0, top_k=3, max_promote=10),
                           predictor, tmp_path)
        promoted = engine._promote(
            np.array([100.0, 101.0, 102.0, 103.0]),
            np.ones(4), np.ones(4))
        assert promoted == [0, 1, 2]

    def test_max_promote_caps_the_window(self, predictor, tmp_path):
        engine = DseEngine(_spec(epsilon=10.0, top_k=1, max_promote=3),
                           predictor, tmp_path)
        promoted = engine._promote(
            np.array([100.0] * 5), np.ones(5), np.ones(5))
        assert promoted == [0, 1, 2]

    def test_archive_predictions_join_the_envelope(self, engine):
        engine.archive["k"] = {
            "assignment": {}, "generation": 0, "mix_cycles": [50.0],
            "predicted_cycles": 50.0, "objectives": [50.0, 1.0, 1.0],
        }
        # Every batch prediction is >2x the archived one, so only the
        # top-k floor promotes anything.
        promoted = engine._promote(
            np.array([100.0, 105.0, 120.0]), np.ones(3), np.ones(3))
        assert promoted == [0]


class TestCheckpointIntegrity:
    def test_tampered_spec_is_rejected(self, predictor, tmp_path):
        engine = DseEngine(_spec(), predictor, tmp_path)
        engine.run(max_workers=2, stop_after=1)
        payload = json.loads(engine.checkpoint_path.read_text())
        payload["spec"]["population"] = 99
        engine.checkpoint_path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="run key"):
            DseEngine.resume(engine.checkpoint_path)

    def test_wrong_schema_is_rejected(self, predictor, tmp_path):
        engine = DseEngine(_spec(), predictor, tmp_path)
        engine.run(max_workers=2, stop_after=1)
        payload = json.loads(engine.checkpoint_path.read_text())
        payload["schema"] = 99
        engine.checkpoint_path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="schema"):
            DseEngine.resume(engine.checkpoint_path)

    def test_missing_checkpoint_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no DSE checkpoint"):
            DseEngine.resume(tmp_path / "nope.json")

    def test_non_json_is_rejected(self, tmp_path):
        path = tmp_path / "dse-broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="is not JSON"):
            DseEngine.resume(path)

    def test_frontier_artifact_is_rejected(self, frontier_artifact):
        """The frontier file shares the checkpoint's schema and run key;
        resume names the sections it lacks instead of a KeyError."""
        with pytest.raises(ConfigError, match="missing 'predictor'"):
            DseEngine.resume(frontier_artifact)

    @pytest.mark.parametrize("command", ["report", "frontier", "resume"])
    def test_cli_exits_2_on_the_frontier_artifact(self, frontier_artifact,
                                                  command, capsys):
        from repro.dse.cli import main

        assert main([command, "--checkpoint", str(frontier_artifact)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(frontier_artifact) in err and "'predictor'" in err


@pytest.fixture(scope="module")
def frontier_artifact(predictor, tmp_path_factory):
    engine = DseEngine(_spec(), predictor, tmp_path_factory.mktemp("dse"))
    engine.run(max_workers=2, stop_after=1)
    return engine.write_frontier()


class TestCheckpointWrites:
    def test_one_git_describe_per_search(self, predictor, tmp_path,
                                         monkeypatch):
        describes = []
        real_run = subprocess.run

        def counting_run(args, *rest, **kwargs):
            if list(args[:2]) == ["git", "describe"]:
                describes.append(args)
            return real_run(args, *rest, **kwargs)

        written = []
        real_write = engine_module._atomic_write

        def recording_write(path, text):
            written.append((path, text))
            real_write(path, text)

        monkeypatch.setattr(manifest_module.subprocess, "run", counting_run)
        monkeypatch.setattr(engine_module, "_atomic_write", recording_write)
        manifest_module.git_describe.cache_clear()
        engine = DseEngine(_spec(), predictor, tmp_path)
        engine.run(max_workers=1)

        checkpoints = [json.loads(text) for path, text in written
                       if path == engine.checkpoint_path]
        assert len(checkpoints) == 3       # the initial one + 2 generations
        describe = manifest_module.git_describe()
        assert describe
        assert all(c["manifest"]["git"] == describe for c in checkpoints)
        assert len(describes) == 1         # the lookup above was memoized

    def test_checkpoint_is_compact_json(self, predictor, tmp_path):
        engine = DseEngine(_spec(), predictor, tmp_path)
        engine.run(max_workers=1, stop_after=1)
        text = engine.checkpoint_path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":")) + "\n"
        assert [p.name for p in tmp_path.iterdir()] \
            == [engine.checkpoint_path.name]

    def test_compact_and_indented_checkpoints_resume_alike(self, predictor,
                                                          tmp_path):
        straight = DseEngine(_spec(), predictor, tmp_path / "straight")
        straight.run(max_workers=1)
        straight.write_frontier()

        halted = DseEngine(_spec(), predictor, tmp_path / "compact")
        halted.run(max_workers=1, stop_after=1)
        payload = json.loads(halted.checkpoint_path.read_text())
        indented = tmp_path / "indented" / halted.checkpoint_path.name
        indented.parent.mkdir()
        # The form checkpoints were written in before they went compact.
        indented.write_text(json.dumps(payload, indent=2, sort_keys=True)
                            + "\n")

        frontiers = []
        for path in (halted.checkpoint_path, indented):
            resumed = DseEngine.resume(path)
            resumed.run(max_workers=1)
            frontiers.append(resumed.write_frontier().read_bytes())
        assert frontiers[0] == frontiers[1] \
            == straight.frontier_path.read_bytes()

    @pytest.mark.slow
    def test_concurrent_writers_and_a_reader_never_collide(self, tmp_path):
        """Two processes given the same spec share one checkpoint file:
        each rewrites it while a third reads it, and no write fails, no
        read is torn and no temp file is left behind."""
        path = tmp_path / "dse-shared.json"
        path.write_text(json.dumps({"writer": "seed"}))
        writer = textwrap.dedent("""
            import json, sys
            from pathlib import Path
            from repro.dse.engine import _atomic_write
            path, tag = Path(sys.argv[1]), sys.argv[2]
            rows = [[i, tag * 16] for i in range(4000)]
            for n in range(400):
                _atomic_write(path, json.dumps({"writer": tag, "n": n,
                                                "rows": rows}) + "\\n")
        """)
        writers = [subprocess.Popen([sys.executable, "-c", writer,
                                     str(path), tag],
                                    stderr=subprocess.PIPE, text=True)
                   for tag in ("a", "b")]
        reads, torn = 0, 0
        deadline = time.monotonic() + 120
        try:
            while (any(w.poll() is None for w in writers)
                   and time.monotonic() < deadline):
                try:
                    json.loads(path.read_text())
                except ValueError:
                    torn += 1
                reads += 1
        finally:
            for w in writers:
                if w.poll() is None:       # still writing at the deadline
                    w.kill()
            errors = [w.communicate()[1] for w in writers]
        assert [w.returncode for w in writers] == [0, 0], errors
        assert reads and torn == 0
        assert json.loads(path.read_text())["n"] == 399
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


# perfbench's dse operations (space ``smoke``, population 12, two
# generations, top_k 1, max_promote 2) with the predictor its set-up
# trains: per seed, the frontier's content key and the sha256 of the
# compact checkpoint without its ``manifest``, as the search wrote them
# before it derived its fixed inputs once per search.
_PINNED_SEARCHES = {
    0: ("f20b947c4d5b8af12e37ad36471da6f98886c832fa8c64fc7ac9336ecc422643",
        "20b0c54d1518cbf7887d41957cd31e798f4ff99c68c89ad47328185899ebbd65"),
    1: ("aa16b69e35c483103d073e2f1e183e19a51457474d9111c42652a657d9c9b0d8",
        "cc7f9db59d65d8e125bbf921108ac3b8a5cc6ddd2cf1275d3d29f20b633dfeb1"),
    2: ("5993696824803acc3b53465b5a08fb5c638a392f0c05935a63b8a858b87ea0c5",
        "b110348922d16c843fa4b89c2ea0e536a133c4a71e7d9603522e1d9c038e142f"),
}


@pytest.fixture(scope="module")
def bench_predictor():
    """The predictor perfbench's dse workload trains in its set-up."""
    from repro.perf.predictor.train import train_predictor

    predictor = train_predictor(
        seed=0, corpus=(("gesture", {}),), cores=("ascend-lite",),
        variants_per_core=8, rounds=40, max_workers=1).predictor
    assert predictor.content_key() == (
        "7c6d1d1830b09dc0103088ea91efe64293a527f4fb3bab671f2366897d8c852b")
    return predictor


@pytest.mark.parametrize("seed", sorted(_PINNED_SEARCHES))
def test_benchmark_searches_are_pinned(bench_predictor, tmp_path, seed):
    spec = SearchSpec(space=space_by_name("smoke"), population=12,
                      generations=2, top_k=1, max_promote=2, seed=seed)
    engine = DseEngine(spec, bench_predictor, tmp_path)
    frontier = engine.run(max_workers=1)
    text = engine.checkpoint_path.read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True,
                              separators=(",", ":")) + "\n"
    del payload["manifest"]
    checkpoint = hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    assert (frontier["content_key"], checkpoint) == _PINNED_SEARCHES[seed]
