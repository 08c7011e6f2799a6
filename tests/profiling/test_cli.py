"""Profiling CLI smoke tests: the zero-to-flamechart path."""

import json

import pytest

from repro.compiler import GraphEngine
from repro.config import ASCEND_LITE
from repro.models import build_model
from repro.profiling import PerfCounters
from repro.profiling.cli import main


class TestList:
    def test_lists_zoo_and_design_points(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "ascend-lite" in out


class TestRun:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli")
        paths = {
            "trace": tmp / "gesture.trace.json",
            "counters": tmp / "gesture.counters.json",
            "manifest": tmp / "gesture.manifest.json",
        }
        code = main([
            "run", "gesture", "--soc", "ascend-lite",
            "--chrome-trace", str(paths["trace"]),
            "--counters", str(paths["counters"]),
            "--manifest", str(paths["manifest"]),
        ])
        assert code == 0
        return paths

    def test_chrome_trace_artifact(self, artifacts):
        doc = json.loads(artifacts["trace"].read_text())
        events = doc["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "s" for e in events)
        layer_names = [e["name"] for e in events
                       if e.get("cat") == "layer"]
        assert layer_names  # one span per layer group
        assert doc["otherData"]["model"] == "gesture_b1"

    def test_counters_artifact_round_trips(self, artifacts):
        payload = json.loads(artifacts["counters"].read_text())
        counters = PerfCounters.from_dict(payload)
        assert counters.total_cycles > 0
        assert counters.traces > 0

    def test_counters_artifact_counts_each_section_once(self, artifacts):
        """The totals are sums over the run's layer groups: the cycles
        and instructions a compile of the same model returns."""
        payload = json.loads(artifacts["counters"].read_text())
        compiled = GraphEngine(ASCEND_LITE).compile_graph(
            build_model("gesture"))
        assert payload["total_cycles"] == compiled.total_cycles == 17_557
        assert payload["events"] == sum(
            layer.instr_count for layer in compiled.layers) == 2_128
        assert payload["traces"] == len(compiled.layers)

    def test_manifest_artifact(self, artifacts):
        payload = json.loads(artifacts["manifest"].read_text())
        assert payload["config"] == "ascend-lite"
        assert payload["extras"]["layer_groups"] >= 1

    def test_report_prints_counters_and_roofline(self, capsys):
        assert main(["run", "gesture", "--soc", "ascend-lite"]) == 0
        out = capsys.readouterr().out
        assert "busy cycles" in out
        assert "binding resource tally" in out

    def test_unknown_model_fails_loudly(self, capsys):
        assert main(["run", "not-a-model"]) == 2
        assert "error: unknown model 'not-a-model'" in capsys.readouterr().err
