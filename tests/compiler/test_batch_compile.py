"""A compile that drains its missed layers as one batch has the side
effects of draining them one by one.

``GraphEngine.compile_pairs`` lowers each layer the tier misses and
drains them together.  Fault campaigns must still see the compile layer
by layer, in pair order: stall and sync faults are drawn for one program
at a time, just before it drains, so the injector draws the same numbers
in the same order; the same programs take the queue drain; and the first
deadlock raises at the same program.  A warm compile, served by the
layer tier or by the model's entry, returns the cold compile's rows.
The digests below were taken when every layer was drained on its own.
resnet18 repeats one of its 11 layer groups.
"""

import hashlib
import json

import pytest

from repro import models
from repro.compiler import GraphEngine, cache
from repro.compiler.lowering import clear_lowering_memo
from repro.config import core_config_by_name
from repro.core.engine import engine_stats, reset_engine_stats
from repro.errors import DeadlockError
from repro.reliability import fault_scope, parse_fault_spec


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True,
                                     separators=(",", ":")).encode()
                          ).hexdigest()


@pytest.fixture
def fresh(tmp_path, monkeypatch):
    """An empty persistent cache, layer tier and lowering memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setattr(GraphEngine, "_GLOBAL_CACHE", {})
    clear_lowering_memo()
    reset_engine_stats()


def _compile():
    return GraphEngine(core_config_by_name("ascend-lite")).compile_graph(
        models.build_model("resnet18"))


def _rows(compiled):
    return [[layer.name] + [getattr(layer, field)
                            for field in cache.LAYER_FIELDS]
            for layer in compiled.layers]


def _campaign(spec):
    """(outcome digest, nonzero injector counters, (flat, queue) drains)
    of one compile under the fault plan ``spec``."""
    with fault_scope(parse_fault_spec(spec)) as inj:
        try:
            outcome = _rows(_compile())
        except DeadlockError as exc:
            outcome = [str(exc), exc.report.describe()]
    stats = engine_stats()
    return (_digest(outcome),
            {name: count for name, count in inj.counters.items() if count},
            (stats["flat_drains"], stats["general_drains"]))


@pytest.mark.faults
@pytest.mark.parametrize("spec,expected", [
    ("seed=4;stall:factor=8,p=1", (
        "6b80639e56a458b9efc2dd8b2fd32bf7fce2a877e4f4cbd4291fe70449d2d8f5",
        {"stall_injected": 58411}, (11, 0))),
    ("seed=7;sync:action=reorder,p=0.001", (
        "dd052de0f1c303e5326a5997dfeacec873994b959d5f116a9e639a60bbccae84",
        {"sync_reordered": 14}, (6, 5))),
    ("seed=5;sync:action=reorder,p=0.001;stall:factor=3,p=0.1", (
        "28bb34cf8195bfc49632d5d5acd1567eeda19db9709671367612fde4857d9716",
        {"sync_reordered": 22, "stall_injected": 5873}, (4, 7))),
    ("seed=1;sync:action=drop,p=0.001", (
        "392acbd576141f12d2e9b4dbb31b8e8143ca7073295df8b0434c5768df8ab107",
        {"sync_dropped": 1}, (1, 1))),
], ids=["stall", "sync-reorder", "stall-and-sync", "sync-drop-deadlock"])
def test_fault_campaign_sees_layer_by_layer_drains(fresh, spec, expected):
    """Every pair compiles (the tiers are bypassed), repeats included,
    and stalls, reorders and the deadlock land where they did when each
    layer drained alone."""
    assert _campaign(spec) == expected


def test_warm_compiles_return_the_cold_rows(fresh, monkeypatch):
    cold = _rows(_compile())
    assert _digest(cold) == (
        "4c16fad5c4117153469c63877133b3edfb1463500e1b0e474ace1182e542139b")

    monkeypatch.setenv("REPRO_CACHE", "0")   # every layer a tier hit
    before = cache.snapshot()
    layer_tier = _rows(_compile())
    assert cache.snapshot()["memory_hits"] - before["memory_hits"] == 11
    monkeypatch.delenv("REPRO_CACHE")        # the model entry
    before = cache.snapshot()
    model_entry = _rows(_compile())
    assert cache.snapshot()["model_hits"] - before["model_hits"] == 1
    assert layer_tier == model_entry == cold
