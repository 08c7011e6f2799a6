"""The step-cost bucket tier: ``bucket-<sha256>.json`` cache entries.

A bucket entry is keyed by the GPT builders' inputs and the design
point, not by the graph, so a hit prices a step without building or
hashing a graph.  These tests hold a hit equal to the graph path it
replaces, check that bad entries are quarantined and re-priced, that
the tier stays out of the way wherever the stats tiers do, that a
profiling session cannot tell a bucket hit from a model-tier hit, and
pin the graphs behind the buckets so that changing them without a
``SCHEMA_VERSION`` bump fails here.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.compiler import GraphEngine, cache
from repro.compiler.graph_engine import _im2col_scales
from repro.config.core_configs import core_config_by_name
from repro.config.soc_configs import soc_config_by_name
from repro.dtypes import FP16
from repro.models.gpt import (GPT_SMALL, GPT_TINY, GptConfig, build_gpt,
                              build_gpt_decode)
from repro.profiling.session import profile
from repro.reliability import fault_scope, parse_fault_spec
from repro.serving import StepCostModel, serve_max_batch
from repro.serving import stepcost

SERVE_CORE = soc_config_by_name("ascend-310").core_groups[0][0]
CORE = core_config_by_name("ascend-mini")
TINY = GptConfig(name="gpt-test", hidden=64, layers=2, heads=2,
                 intermediate=128, vocab_size=512, max_context=128)

# sha256 over the graphs behind BUCKETS and SMALL_BUCKETS (their grouped
# workloads and im2col scales), per SCHEMA_VERSION.
GPT_GRAPH_DIGESTS = {
    1: "38e607ab020d464665e56b0247c33a85b2411e2830b49f72a06355bbfced5c7f",
}


def _serve_buckets():
    """Every bucket perfbench's serve set-up prices (its loop)."""
    buckets = []
    tokens = StepCostModel.MIN_TOKEN_BUCKET
    while tokens <= GPT_TINY.max_context:
        buckets.append(("prefill", 1, tokens))
        batch = 1
        while batch < 2 * serve_max_batch():
            buckets.append(("decode", batch, tokens))
            batch *= 2
        tokens *= 2
    return buckets


BUCKETS = _serve_buckets()
SMALL_BUCKETS = (("prefill", 1, 128), ("decode", 1, 2048),
                 ("decode", 8, 512))


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    """An empty persistent cache and empty in-memory compile tiers."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setattr(GraphEngine, "_GLOBAL_CACHE", {})
    monkeypatch.setattr(GraphEngine, "_GLOBAL_MODEL_CACHE", {})
    return tmp_path


def _delta(before, counter):
    return cache.stats()[counter] - before[counter]


def _campaign(cost, buckets):
    """Price every bucket, charging decode buckets 1-3 steps each."""
    prices = {}
    for n, (phase, batch, tokens) in enumerate(buckets):
        if phase == "prefill":
            prices[batch, tokens] = cost.prefill_cycles(tokens)
        else:
            prices[batch, tokens] = cost.decode_cycles(batch, tokens,
                                                       steps=1 + n % 3)
    return prices, cost.invocations(), cost.aggregate_counters().to_dict()


def _no_graphs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a bucket hit built a graph")

    monkeypatch.setattr(stepcost, "build_gpt", refuse)
    monkeypatch.setattr(stepcost, "build_gpt_decode", refuse)


def _entry_path(model, core, phase, batch, tokens):
    key = cache.bucket_key(cache.bucket_key_prefix(model, core, FP16),
                           phase, batch, tokens)
    return cache.cache_dir() / f"bucket-{key}.json"


def test_bucket_key_is_canonical_json_of_its_inputs():
    prefix = cache.bucket_key_prefix(GPT_TINY, SERVE_CORE, FP16)
    blob = cache.canonical_json({
        "core": SERVE_CORE, "dtype": FP16, "model": GPT_TINY,
        "schema": cache.SCHEMA_VERSION, "step": ["decode", 16, 512]})
    assert (cache.bucket_key(prefix, "decode", 16, 512)
            == hashlib.sha256(blob.encode()).hexdigest())


def test_hits_equal_the_graph_path(isolated, monkeypatch):
    """All 49 serve buckets: priced on an empty cache (the graph path,
    storing entries), with the tier off, and from the filled tier."""
    assert len(BUCKETS) == 49
    before = cache.snapshot()
    empty = _campaign(StepCostModel(GPT_TINY, SERVE_CORE,
                                    use_predictor=False), BUCKETS)
    assert _delta(before, "bucket_stores") == 49
    assert _delta(before, "bucket_hits") == 0

    monkeypatch.setenv("REPRO_CACHE", "0")
    graph_path = _campaign(StepCostModel(GPT_TINY, SERVE_CORE,
                                         use_predictor=False), BUCKETS)
    monkeypatch.delenv("REPRO_CACHE")

    _no_graphs(monkeypatch)
    before = cache.snapshot()
    filled = _campaign(StepCostModel(GPT_TINY, SERVE_CORE,
                                     use_predictor=False), BUCKETS)
    assert _delta(before, "bucket_hits") == 49
    assert _delta(before, "bucket_stores") == 0
    assert empty == graph_path
    assert filled == graph_path


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps({"schema": cache.SCHEMA_VERSION, "cycles": 5,
                "layers": "nope"}),
    json.dumps({"schema": cache.SCHEMA_VERSION, "cycles": 5,
                "layers": [{"name": "L0.qkv"}]}),
    json.dumps({"schema": cache.SCHEMA_VERSION, "cycles": "5",
                "layers": []}),
])
def test_bad_entry_quarantined_and_repriced(isolated, text):
    clean = StepCostModel(TINY, CORE, use_predictor=False).decode_cycles(2, 32)
    path = _entry_path(TINY, CORE, "decode", 2, 32)
    path.write_text(text)
    before = cache.snapshot()
    assert (StepCostModel(TINY, CORE, use_predictor=False)
            .decode_cycles(2, 32) == clean)
    assert (cache.quarantine_dir() / path.name).read_text() == text
    assert _delta(before, "bucket_hits") == 0
    assert _delta(before, "bucket_stores") == 1
    assert json.loads(path.read_text())["cycles"] == clean


def test_cache_off_bypasses_the_tier(isolated, monkeypatch):
    StepCostModel(TINY, CORE, use_predictor=False).decode_cycles(2, 32)
    monkeypatch.setenv("REPRO_CACHE", "0")
    built = []
    monkeypatch.setattr(stepcost, "build_gpt_decode",
                        lambda *a, **k: built.append(1) or
                        build_gpt_decode(*a, **k))
    before = cache.snapshot()
    StepCostModel(TINY, CORE, use_predictor=False).decode_cycles(2, 32)
    StepCostModel(TINY, CORE, use_predictor=False).decode_cycles(4, 32)
    assert built == [1, 1]
    assert _delta(before, "bucket_hits") == 0
    assert _delta(before, "bucket_stores") == 0
    assert not _entry_path(TINY, CORE, "decode", 4, 32).exists()


@pytest.mark.parametrize("spec", ["seed=4;stall:factor=8,p=1",
                                  "seed=3;sync:action=reorder,p=1"])
def test_timing_fault_campaign_bypasses_the_tier(isolated, spec):
    clean = StepCostModel(TINY, CORE, use_predictor=False).decode_cycles(2, 32)
    path = _entry_path(TINY, CORE, "decode", 2, 32)
    stored = path.read_bytes()
    before = cache.snapshot()
    with fault_scope(parse_fault_spec(spec)):
        faulted = (StepCostModel(TINY, CORE, use_predictor=False)
                   .decode_cycles(2, 32))
        StepCostModel(TINY, CORE, use_predictor=False).decode_cycles(4, 32)
    assert _delta(before, "bucket_hits") == 0
    assert _delta(before, "bucket_stores") == 0
    assert path.read_bytes() == stored
    assert not _entry_path(TINY, CORE, "decode", 4, 32).exists()
    if "stall" in spec:
        assert faulted > clean
    assert (StepCostModel(TINY, CORE, use_predictor=False)
            .decode_cycles(2, 32) == clean)


def test_predictor_tier_bypasses_the_tier(isolated, monkeypatch):
    StepCostModel(TINY, CORE, use_predictor=False).decode_cycles(2, 32)

    class Flat:
        def predict(self, features):
            return np.full(len(features), 1000.0)

    monkeypatch.setattr(StepCostModel, "_load_predictor",
                        lambda self: Flat())
    before = cache.snapshot()
    cost = StepCostModel(TINY, CORE, use_predictor=True)
    cycles = cost.decode_cycles(2, 32)
    cost.decode_cycles(4, 32)
    groups = len(build_gpt_decode(TINY, batch=2, context=32)
                 .grouped_workloads())
    assert cycles == 1000 * groups
    assert _delta(before, "bucket_hits") == 0
    assert _delta(before, "bucket_stores") == 0
    assert not _entry_path(TINY, CORE, "decode", 4, 32).exists()
    assert cost.aggregate_counters().layers == 0


def _samples(session):
    return [(label, counters.to_dict()) for label, counters in session.samples]


def test_profiling_sees_a_bucket_hit_as_a_model_hit(isolated):
    StepCostModel(TINY, CORE, use_predictor=False).decode_cycles(2, 32)
    _entry_path(TINY, CORE, "decode", 2, 32).unlink()
    before = cache.snapshot()
    with profile() as model_hit:
        StepCostModel(TINY, CORE, use_predictor=False).decode_cycles(2, 32)
    assert _delta(before, "bucket_stores") == 1
    with profile() as bucket_hit:
        StepCostModel(TINY, CORE, use_predictor=False).decode_cycles(2, 32)
    assert _delta(before, "bucket_hits") == 1
    assert model_hit.samples
    assert _samples(bucket_hit) == _samples(model_hit)
    assert bucket_hit.counters == model_hit.counters


def test_a_hit_outside_a_session_builds_no_layer_views(isolated,
                                                       monkeypatch):
    StepCostModel(TINY, CORE, use_predictor=False).decode_cycles(2, 32)

    def refuse(**row):
        raise AssertionError("a bucket hit built a layer view that no "
                             "profiling session reads")

    monkeypatch.setattr(stepcost, "SimpleNamespace", refuse)
    before = cache.snapshot()
    StepCostModel(TINY, CORE, use_predictor=False).decode_cycles(2, 32)
    assert _delta(before, "bucket_hits") == 1


def _graph_text(model, phase, batch, tokens):
    """What a bucket's graph hands the compiler, minus the core (which
    the bucket key already holds)."""
    if phase == "prefill":
        graph = build_gpt(model, batch=batch, seq=tokens)
    else:
        graph = build_gpt_decode(model, batch=batch, context=tokens)
    return cache.canonical_json([list(graph.grouped_workloads()),
                                 _im2col_scales(graph)])


def test_bucket_graphs_pinned_per_schema_version():
    """Bucket keys hash the builders' inputs, so nothing but
    ``SCHEMA_VERSION`` retires an entry whose graph has changed."""
    texts = [_graph_text(GPT_TINY, *bucket) for bucket in BUCKETS]
    texts += [_graph_text(GPT_SMALL, *bucket) for bucket in SMALL_BUCKETS]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    pinned = GPT_GRAPH_DIGESTS.get(cache.SCHEMA_VERSION)
    assert pinned is not None, (
        f"no GPT graph digest pinned for SCHEMA_VERSION "
        f"{cache.SCHEMA_VERSION}: add {digest!r}")
    assert digest == pinned, (
        "the GPT graphs behind the serving step-cost buckets changed: "
        "bump SCHEMA_VERSION in repro/compiler/cache.py, or stored bucket "
        "entries keep pricing the old graphs; then pin "
        f"{digest!r} for the new version")
