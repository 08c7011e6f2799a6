"""Compile cache: keys, round-trips, invalidation, stats."""

import dataclasses
import json

import pytest

from repro.bench import sweep_job_key
from repro.compiler import GraphEngine
from repro.compiler import cache, lowering
from repro.compiler.graph_engine import _im2col_scales
from repro.config import ASCEND, ASCEND_MAX, core_config_by_name
from repro.config.soc_configs import soc_config_by_name
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.models import build_model
from repro.models.gpt import GPT_TINY, GptConfig, build_gpt_decode
from repro.serving.stepcost import StepCostModel


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.reset_stats()
    yield tmp_path
    cache.reset_stats()


@pytest.fixture()
def fresh_engine():
    """A GraphEngine with its own empty layer memory tier instead of the
    process-global one, so a test counts only its own hits."""
    engine = GraphEngine(ASCEND)
    engine._cache = {}
    return engine


_WORK = OpWorkload(
    name="unit",
    gemms=(GemmWork(m=64, k=64, n=64),),
    vector=(VectorWork(elems=4096),),
    weight_bytes=8192, input_bytes=8192, output_bytes=8192,
)


class TestContentKey:
    """The layer key is ``(config, gemms, vector, a_bytes_scale)``, what
    lowering reads: a workload that differs only in its name or byte
    footprints is a memory hit, and another design point or A-fetch
    scale compiles anew."""

    def test_stable_and_input_sensitive(self, cache_dir, fresh_engine):
        first = fresh_engine.compile_workload(_WORK)
        assert fresh_engine.compile_workload(_WORK) == first
        assert cache.stats()["memory_hits"] == 1
        fresh_engine.compile_workload(
            dataclasses.replace(_WORK, gemms=(GemmWork(m=128, k=64, n=64),)))
        fresh_engine.compile_workload(_WORK, a_bytes_scale=0.5)
        other_core = GraphEngine(ASCEND_MAX)
        other_core._cache = fresh_engine._cache
        other_core.compile_workload(_WORK)
        assert cache.stats()["memory_hits"] == 1  # each compiled anew
        assert len(fresh_engine._cache) == 4

    def test_name_does_not_affect_key(self):
        renamed = dataclasses.replace(_WORK, name="other")
        # Compiled statistics are name-independent (hit paths relabel),
        # so the key holds structure only: identically-shaped layers
        # (e.g. the 12 transformer blocks of BERT) dedupe to one compile.
        assert cache.content_key(ASCEND, _WORK) \
            == cache.content_key(ASCEND, renamed)

    def test_renamed_layer_is_a_memory_hit(self, cache_dir, fresh_engine):
        first = fresh_engine.compile_workload(_WORK)
        renamed = OpWorkload(name="other", gemms=_WORK.gemms,
                             vector=_WORK.vector, weight_bytes=8192,
                             input_bytes=8192, output_bytes=8192)
        second = fresh_engine.compile_workload(renamed)
        assert cache.stats()["memory_hits"] == 1
        assert second.name == "other"  # relabeled, not the cached name
        assert second.cycles == first.cycles

    @pytest.mark.parametrize("field",
                             ["weight_bytes", "input_bytes", "output_bytes"])
    def test_byte_footprint_is_a_memory_hit(self, cache_dir, fresh_engine,
                                            field):
        first = fresh_engine.compile_workload(_WORK)
        other = dataclasses.replace(_WORK, **{field: 1})
        second = fresh_engine.compile_workload(other)
        assert cache.stats()["memory_hits"] == 1
        assert second == dataclasses.replace(first, workload=other)

    def test_key_is_the_lowering_memo_key(self):
        """Both in-process tiers key a layer by the same fields, so they
        cannot disagree about which workloads are the same layer."""
        lowering.clear_lowering_memo()
        lowering.lower_workload([_WORK], ASCEND, [0.5])
        assert list(lowering._ARENA_MEMO)[-1] \
            == ("workload",) + cache.content_key(ASCEND, _WORK, 0.5)


class TestPinnedKeys:
    """The on-disk key format, pinned by literal digests.

    Every stored entry and sweep checkpoint is addressed by these
    digests.  An edit that changes one orphans the whole cache, so it
    must come with a ``SCHEMA_VERSION`` bump (and new literals here).
    """

    def test_model_key_gesture_on_ascend_lite(self):
        graph = build_model("gesture")
        assert cache.model_content_key(
            core_config_by_name("ascend-lite"), graph.grouped_workloads(),
            _im2col_scales(graph)) == (
            "93306185222d962398d0c6e973d7eb70f407473b4e9d4c4994f720159ae4f06c")

    def test_model_key_gpt_tiny_decode_bucket(self):
        """The serving design's decode_b16_t512 bucket on Ascend 310."""
        core = soc_config_by_name("ascend-310").core_groups[0][0]
        graph = build_gpt_decode(GPT_TINY, batch=16, context=512,
                                 dtype=StepCostModel(GPT_TINY, core).dtype)
        assert cache.model_content_key(
            core, graph.grouped_workloads(), _im2col_scales(graph)) == (
            "2c6c6161f453885faf2cf33a0993a61e5c10f86851c267c88d4b171670d6e7fc")

    def test_sweep_job_key(self):
        assert sweep_job_key(("gesture", {"batch": 2}, ASCEND)) == (
            "3f56ad6d120a71fbbe6cf9b91ff5732c2c55c3255e7c8f1682fe2e04443b2343")


class TestEntryText:
    """Every entry is the C encoder's ``json.dumps`` of its payload with
    the schema appended, written in one piece."""

    def test_store_writes_dumps_text(self, cache_dir):
        payload = {"cycles": 12, "ratio": 0.1, "nan": float("nan"),
                   "layers": [{"name": "ünï", "cycles": 3}], "z": None}
        cache.store("probe", payload)
        text = (cache.cache_dir() / "probe.json").read_text()
        assert text == json.dumps({**payload,
                                   "schema": cache.SCHEMA_VERSION})

    def test_layer_model_and_bucket_entries(self, cache_dir, monkeypatch):
        """One entry per compile: a model compile leaves its model entry
        and a priced step its bucket entry; layers stay in memory."""
        monkeypatch.setattr(GraphEngine, "_GLOBAL_CACHE", {})
        GraphEngine(ASCEND).compile_graph(build_model("gesture"))
        [entry] = cache.cache_dir().iterdir()
        assert entry.name.startswith("model-")
        core = soc_config_by_name("ascend-310").core_groups[0][0]
        StepCostModel(GPT_TINY, core).decode_cycles(1, 16)
        kinds = set()
        for path in cache.cache_dir().glob("*.json"):
            kinds.add(path.name.split("-")[0] if "-" in path.name
                      else "layer")
            text = path.read_text()
            payload = json.loads(text)
            assert list(payload)[-1] == "schema"
            assert text == json.dumps(payload), path.name
        assert kinds == {"model", "bucket"}

    def test_priced_step_leaves_one_bucket_entry(self, cache_dir,
                                                 monkeypatch):
        """A priced serving step compiles its layer groups in memory and
        persists its bucket alone: no model entry beside it.  The model
        is this test's own, so no earlier compile in the process can
        have answered for it."""
        monkeypatch.setattr(GraphEngine, "_GLOBAL_CACHE", {})
        model = GptConfig(name="gpt-one-entry", hidden=48, layers=1,
                          heads=3, intermediate=96, vocab_size=300,
                          max_context=64)
        core = soc_config_by_name("ascend-310").core_groups[0][0]
        StepCostModel(model, core).decode_cycles(1, 16)
        [entry] = cache.cache_dir().iterdir()
        assert entry.name.startswith("bucket-")
        stats = cache.stats()
        assert stats["bucket_stores"] == stats["stores"] == 1
        assert stats["model_stores"] == 0


class TestPersistentRoundTrip:
    def test_memory_tier_skips_disk(self, cache_dir, fresh_engine):
        fresh_engine.compile_workload(_WORK)
        fresh_engine.compile_workload(_WORK, name="again")
        stats = cache.stats()
        assert stats["memory_hits"] == 1
        assert stats["hits"] == stats["misses"] == 0  # layers never on disk
        assert not any(cache_dir.iterdir())

    def test_relabel_keeps_statistics(self, cache_dir, fresh_engine):
        first = fresh_engine.compile_workload(_WORK)
        second = fresh_engine.compile_workload(_WORK, name="alias")
        assert second.name == "alias"
        assert second.cycles == first.cycles
        assert second.instr_count == first.instr_count

    def test_disabled_by_env(self, cache_dir, monkeypatch):
        """``REPRO_CACHE=0`` turns off every persistent tier: model and
        step-cost entries alike."""
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setattr(GraphEngine, "_GLOBAL_CACHE", {})
        GraphEngine(ASCEND).compile_graph(build_model("gesture", batch=1))
        core = soc_config_by_name("ascend-310").core_groups[0][0]
        StepCostModel(GPT_TINY, core).decode_cycles(1, 16)
        assert not any(cache_dir.iterdir())
        stats = cache.stats()
        assert stats["stores"] == stats["misses"] == 0


class TestInvalidation:
    def _model_entry(self):
        graph = build_model("gesture", batch=1)
        cold = GraphEngine(ASCEND).compile_graph(graph)
        [entry] = cache.cache_dir().glob("model-*.json")
        return graph, cold, entry

    def test_schema_mismatch_is_a_miss(self, cache_dir):
        graph, _, entry = self._model_entry()
        payload = json.loads(entry.read_text())
        payload["schema"] = cache.SCHEMA_VERSION + 1
        entry.write_text(json.dumps(payload))
        misses = cache.stats()["misses"]
        assert cache.load_model(entry.stem[len("model-"):],
                                len(graph.grouped_workloads())) is None
        assert cache.stats()["misses"] == misses + 1

    def test_incomplete_entry_recompiles(self, cache_dir):
        # Every row lacks all statistics but one: the rows cannot be
        # rebuilt, so the entry is rejected before it counts as a hit,
        # quarantined, and the model recompiles.
        graph, cold, entry = self._model_entry()
        payload = json.loads(entry.read_text())
        payload["layers"] = [{"cycles": 1} for _ in payload["layers"]]
        entry.write_text(json.dumps(payload))
        cache.reset_stats()
        rebuilt = GraphEngine(ASCEND).compile_graph(graph)
        assert rebuilt.layers == cold.layers
        assert (cache.quarantine_dir() / entry.name).exists()
        stats = cache.stats()
        assert stats["hits"] == stats["model_hits"] == 0
        assert stats["errors"] == stats["quarantined"] == 1
        assert stats["misses"] == 1


class TestModelLevel:
    def test_memory_tier_round_trip(self, cache_dir):
        """An in-process recompile of a model compiles no layer and reads
        its entry once: no model tier sits in front of the entry."""
        graph = build_model("gesture", batch=1)
        engine = GraphEngine(ASCEND)
        engine._cache = {}
        cold = engine.compile_graph(graph)
        assert cache.stats()["model_stores"] == 1

        calls = []
        engine.compile_layers = lambda *a, **kw: calls.append(a)  # type: ignore[assignment]
        warm = engine.compile_graph(graph)
        assert calls == []
        assert warm.layers == cold.layers
        stats = cache.stats()
        assert stats["model_hits"] == stats["hits"] == 1
        assert stats["model_stores"] == 1

    def test_disk_tier_round_trip(self, cache_dir):
        """A fresh engine with an empty layer tier (as in a fresh
        process) rebuilds the whole model from its persisted artifact
        without compiling a single layer."""
        graph = build_model("gesture", batch=1)
        cold_engine = GraphEngine(ASCEND)
        cold_engine._cache = {}
        cold = cold_engine.compile_graph(graph)

        warm_engine = GraphEngine(ASCEND)
        warm_engine._cache = {}
        calls = []
        warm_engine.compile_layers = lambda *a, **kw: calls.append(a)  # type: ignore[assignment]
        warm = warm_engine.compile_graph(graph)
        assert calls == []  # artifact hit: no layer ever compiled
        assert cache.stats()["model_hits"] == 1
        assert warm.total_cycles == cold.total_cycles
        assert [(l.name, l.cycles, l.gm_read_bytes) for l in warm.layers] \
            == [(l.name, l.cycles, l.gm_read_bytes) for l in cold.layers]

    def test_stream_schedule_from_artifact(self, cache_dir):
        """to_streams over a disk-rebuilt model equals the cold one —
        the artifact covers the stream-schedule inputs."""
        graph = build_model("gesture", batch=1)
        engine = GraphEngine(ASCEND)
        engine._cache = {}
        cold_stream = engine.to_streams(engine.compile_graph(graph),
                                        blocks_per_task=2)

        warm_engine = GraphEngine(ASCEND)
        warm_engine._cache = {}
        warm_stream = warm_engine.to_streams(warm_engine.compile_graph(graph),
                                             blocks_per_task=2)
        assert [(t.name, [(b.name, b.cycles, b.gm_read_bytes, b.gm_write_bytes)
                          for b in t.blocks]) for t in warm_stream.tasks] \
            == [(t.name, [(b.name, b.cycles, b.gm_read_bytes, b.gm_write_bytes)
                          for b in t.blocks]) for t in cold_stream.tasks]

    def test_corrupt_model_artifact_recompiles(self, cache_dir):
        graph = build_model("gesture", batch=1)
        engine = GraphEngine(ASCEND)
        engine._cache = {}
        cold = engine.compile_graph(graph)

        # Truncate the artifact's layer list: must be treated as a miss.
        entries = list(cache.cache_dir().glob("model-*.json"))
        assert len(entries) == 1
        payload = json.loads(entries[0].read_text())
        payload["layers"] = payload["layers"][:1]
        entries[0].write_text(json.dumps(payload))

        rebuilt_engine = GraphEngine(ASCEND)
        rebuilt = rebuilt_engine.compile_graph(graph)
        assert rebuilt.total_cycles == cold.total_cycles
