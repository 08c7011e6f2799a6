"""The benchmark's layer split still sees every layer it names.

``perfbench/tracing.py`` times layers by wrapping module attributes
(``PATCH_TARGETS``); a target a refactor renames or routes around is
skipped or never called, and its time silently moves into
``orchestration``.  These checks install the tracer and require each
kind of operation the benchmark times to register the layers it goes
through.
"""

import importlib

import pytest

from repro import models
from repro.compiler import GraphEngine, cache
from repro.config import core_config_by_name
from repro.config.soc_configs import soc_config_by_name
from repro.dse import engine as dse_engine
from repro.dse.space import space_by_name
from repro.models.gpt import GPT_TINY
from repro.serving.stepcost import StepCostModel

from tests.scripts import load_script

tracing = load_script("perfbench/tracing.py")


def test_every_patch_target_exists():
    for module_name, attr, layer in tracing.PATCH_TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)
        assert layer in tracing.LAYERS


@pytest.fixture()
def tracer(tmp_path, monkeypatch):
    """An installed tracer over an empty persistent cache and empty
    in-memory compile tiers."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setattr(GraphEngine, "_GLOBAL_CACHE", {})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _calls(tracer, since):
    return {layer: tracer.calls[layer] - since.get(layer, 0)
            for layer in tracing.LAYERS}


def _compile(model, core):
    graph = models.build_model(model)
    return GraphEngine(core_config_by_name(core)).compile_graph(graph)


def test_cold_then_warm_compile(tracer):
    _compile("gesture", "ascend-lite")
    cold = _calls(tracer, {})
    assert cold["lower"] > 0 and cold["drain"] > 0
    assert cold["cache_key"] > 0 and cold["graph_build"] == 1

    GraphEngine._GLOBAL_CACHE.clear()
    before = dict(tracer.calls)
    _compile("gesture", "ascend-lite")
    warm = _calls(tracer, before)
    assert warm["cache_key"] == 1  # one whole-model key, no layer keys
    assert warm["cache_io"] == 1   # one whole-model load from disk
    assert warm["graph_build"] == 1
    assert warm["lower"] == 0 and warm["drain"] == 0


def test_step_cost_bucket(tracer):
    core = soc_config_by_name("ascend-310").core_groups[0][0]
    StepCostModel(GPT_TINY, core).decode_cycles(1, 16)
    calls = _calls(tracer, {})
    assert calls["graph_build"] == 1
    assert calls["cache_key"] > 0


def test_warm_step_cost_bucket(tracer):
    core = soc_config_by_name("ascend-310").core_groups[0][0]
    StepCostModel(GPT_TINY, core).decode_cycles(1, 16)
    before = dict(tracer.calls)
    StepCostModel(GPT_TINY, core).decode_cycles(1, 16)
    warm = _calls(tracer, before)
    assert warm["graph_build"] == 0  # a bucket entry, no graph
    assert warm["cache_key"] == 0    # keyed by builder inputs, no hashing
    assert warm["cache_io"] == 1     # one bucket load from disk
    assert warm["lower"] == 0 and warm["drain"] == 0


def test_dse_jobs_on_a_warm_cache(tracer, monkeypatch):
    """A search's jobs on one mix model build its graph once between
    them, and each pays for its own whole-model key and disk load."""
    monkeypatch.setattr(dse_engine, "_MIX_MEMO", {})
    space = space_by_name("smoke")
    points = list(space.points())[:2]
    jobs = [("gesture", {}, space.decode(point)) for point in points]
    for job in jobs:                        # fill the persistent cache
        dse_engine._simulate_job(job)
    GraphEngine._GLOBAL_CACHE.clear()
    dse_engine._MIX_MEMO.clear()
    before = dict(tracer.calls)
    for job in jobs:
        dse_engine._simulate_job(job)
    calls = _calls(tracer, before)
    assert calls["graph_build"] == 1
    assert calls["cache_key"] == len(jobs)
    assert calls["cache_io"] == len(jobs)
    assert calls["lower"] == 0 and calls["drain"] == 0
