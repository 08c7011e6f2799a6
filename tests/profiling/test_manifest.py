"""RunManifest provenance tests."""

import json
import sys

import numpy

from repro.profiling.manifest import RunManifest, git_describe


class TestRunManifest:
    def test_collect_snapshots_process(self):
        manifest = RunManifest.collect(model="resnet50", config="ascend",
                                       extras={"batch": 2})
        assert manifest.model == "resnet50"
        assert manifest.config == "ascend"
        assert manifest.extras == {"batch": 2}
        assert sys.version.startswith(manifest.python)
        assert manifest.numpy == numpy.__version__
        assert manifest.platform
        assert manifest.git  # "unknown" outside a checkout, never empty
        assert "enabled" in manifest.cache

    def test_env_keeps_only_repro_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEMO_KNOB", "on")
        monkeypatch.setenv("UNRELATED_VAR", "off")
        # Set in reverse order: the manifest lists knobs sorted by name,
        # not in the order they were set.
        monkeypatch.setenv("REPRO_ZZ_DEMO_KNOB", "2")
        monkeypatch.setenv("REPRO_AA_DEMO_KNOB", "1")
        manifest = RunManifest.collect()
        assert manifest.env.get("REPRO_DEMO_KNOB") == "on"
        assert all(name.startswith("REPRO_") for name in manifest.env)
        assert list(manifest.env) == sorted(manifest.env)
        pair = ("REPRO_ZZ_DEMO_KNOB", "REPRO_AA_DEMO_KNOB")
        assert [name for name in manifest.env if name in pair] == \
            ["REPRO_AA_DEMO_KNOB", "REPRO_ZZ_DEMO_KNOB"]
        assert manifest.env["REPRO_AA_DEMO_KNOB"] == "1"

    def test_dict_round_trip(self):
        manifest = RunManifest.collect(model="bert-base")
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_write_emits_loadable_json(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        manifest = RunManifest.collect(model="gesture")
        manifest.write(path)
        assert json.loads(path.read_text())["model"] == "gesture"

    def test_git_describe_never_raises(self):
        assert isinstance(git_describe(), str) and git_describe()
