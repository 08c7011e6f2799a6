"""Persistent compile cache: keys, round-trips, invalidation, stats."""

import json

import pytest

from repro.bench import sweep_job_key
from repro.compiler import GraphEngine
from repro.compiler import cache
from repro.compiler.graph_engine import _im2col_scales
from repro.config import ASCEND, ASCEND_MAX, core_config_by_name
from repro.config.soc_configs import soc_config_by_name
from repro.graph.workload import GemmWork, OpWorkload, VectorWork
from repro.models import build_model
from repro.models.gpt import GPT_TINY, build_gpt_decode
from repro.serving.stepcost import StepCostModel


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.reset_stats()
    saved_models = dict(GraphEngine._GLOBAL_MODEL_CACHE)
    GraphEngine._GLOBAL_MODEL_CACHE.clear()
    yield tmp_path
    GraphEngine._GLOBAL_MODEL_CACHE.clear()
    GraphEngine._GLOBAL_MODEL_CACHE.update(saved_models)
    cache.reset_stats()


@pytest.fixture()
def fresh_engine():
    """A GraphEngine without the process-global memory cache, so tests
    exercise the persistent tier."""
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
    def test_stable_and_input_sensitive(self):
        key = cache.content_key(ASCEND, _WORK)
        assert key == cache.content_key(ASCEND, _WORK)
        assert key != cache.content_key(ASCEND_MAX, _WORK)
        other = OpWorkload(name="unit", gemms=(GemmWork(m=128, k=64, n=64),),
                           vector=_WORK.vector, weight_bytes=8192,
                           input_bytes=8192, output_bytes=8192)
        assert key != cache.content_key(ASCEND, other)
        assert key != cache.content_key(ASCEND, _WORK, a_bytes_scale=0.5)

    def test_name_does_not_affect_key(self):
        renamed = OpWorkload(name="other", gemms=_WORK.gemms,
                             vector=_WORK.vector, weight_bytes=8192,
                             input_bytes=8192, output_bytes=8192)
        # Compiled statistics are name-independent (hit paths relabel),
        # so the key hashes structure only: identically-shaped layers
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


class TestPinnedKeys:
    """The on-disk key format, pinned by literal digests.

    Every stored entry and sweep checkpoint is addressed by these
    digests.  An edit that changes one orphans the whole cache, so it
    must come with a ``SCHEMA_VERSION`` bump (and new literals here).
    """

    def test_layer_key(self):
        assert cache.content_key(ASCEND, _WORK) == (
            "99fac9fb9e571a2801a3aadcac3bcd90e96c8f9fcd388bd096a010e5d5bef185")

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


class TestPersistentRoundTrip:
    def test_disk_hit_matches_compiled(self, cache_dir, fresh_engine):
        cold = fresh_engine.compile_workload(_WORK)
        assert cache.stats()["stores"] == 1

        rebuilt = GraphEngine(ASCEND)
        rebuilt._cache = {}
        warm = rebuilt.compile_workload(_WORK)
        assert cache.stats()["hits"] == 1
        assert warm == cold

    def test_memory_tier_skips_disk(self, cache_dir, fresh_engine):
        fresh_engine.compile_workload(_WORK)
        fresh_engine.compile_workload(_WORK, name="again")
        stats = cache.stats()
        assert stats["memory_hits"] == 1
        assert stats["hits"] == 0  # disk never consulted twice

    def test_relabel_keeps_statistics(self, cache_dir, fresh_engine):
        first = fresh_engine.compile_workload(_WORK)
        second = fresh_engine.compile_workload(_WORK, name="alias")
        assert second.name == "alias"
        assert second.cycles == first.cycles
        assert second.instr_count == first.instr_count

    def test_disabled_by_env(self, cache_dir, fresh_engine, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        fresh_engine.compile_workload(_WORK)
        assert not any(cache_dir.iterdir())
        assert cache.stats()["stores"] == 0


class TestInvalidation:
    def test_schema_mismatch_is_a_miss(self, cache_dir, fresh_engine):
        fresh_engine.compile_workload(_WORK)
        key = cache.content_key(ASCEND, _WORK)
        path = cache.cache_dir() / f"{key}.json"
        payload = json.loads(path.read_text())
        payload["schema"] = cache.SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.load(key) is None

    def test_corrupt_entry_is_tolerated(self, cache_dir, fresh_engine):
        cold = fresh_engine.compile_workload(_WORK)
        key = cache.content_key(ASCEND, _WORK)
        (cache.cache_dir() / f"{key}.json").write_text("{not json")
        rebuilt = GraphEngine(ASCEND)
        rebuilt._cache = {}
        recompiled = rebuilt.compile_workload(_WORK)
        assert recompiled == cold
        assert cache.stats()["errors"] >= 1

    def test_incomplete_entry_recompiles(self, cache_dir, fresh_engine):
        cold = fresh_engine.compile_workload(_WORK)
        key = cache.content_key(ASCEND, _WORK)
        (cache.cache_dir() / f"{key}.json").write_text(
            json.dumps({"schema": cache.SCHEMA_VERSION, "cycles": 1}))
        rebuilt = GraphEngine(ASCEND)
        rebuilt._cache = {}
        assert rebuilt.compile_workload(_WORK) == cold


class TestModelLevel:
    def test_memory_tier_round_trip(self, cache_dir):
        """Same-process recompile of a model is one in-memory artifact
        hit — no per-layer work, no disk reads."""
        graph = build_model("gesture", batch=1)
        cold_engine = GraphEngine(ASCEND)
        cold_engine._cache = {}
        cold = cold_engine.compile_graph(graph)
        assert cache.stats()["model_stores"] == 1

        warm_engine = GraphEngine(ASCEND)
        warm_engine._cache = {}
        warm = warm_engine.compile_graph(graph)
        assert warm.total_cycles == cold.total_cycles
        assert [l.cycles for l in warm.layers] \
            == [l.cycles for l in cold.layers]
        stats = cache.stats()
        assert stats["model_memory_hits"] == 1
        assert stats["model_hits"] == 0  # disk never consulted twice

    def test_disk_tier_round_trip(self, cache_dir):
        """Clearing the in-memory model cache (a fresh process) rebuilds
        the whole model from its persisted artifact without compiling a
        single layer."""
        graph = build_model("gesture", batch=1)
        cold_engine = GraphEngine(ASCEND)
        cold_engine._cache = {}
        cold = cold_engine.compile_graph(graph)

        GraphEngine._GLOBAL_MODEL_CACHE.clear()
        warm_engine = GraphEngine(ASCEND)
        warm_engine._cache = {}
        calls = []
        warm_engine.compile_workload = lambda *a, **kw: calls.append(a)  # type: ignore[assignment]
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

        GraphEngine._GLOBAL_MODEL_CACHE.clear()
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

        GraphEngine._GLOBAL_MODEL_CACHE.clear()
        rebuilt_engine = GraphEngine(ASCEND)
        rebuilt = rebuilt_engine.compile_graph(graph)
        assert rebuilt.total_cycles == cold.total_cycles


class TestLruEviction:
    def _work(self, i):
        return OpWorkload(name=f"w{i}", gemms=(GemmWork(m=16 + 16 * i,
                                                        k=32, n=32),))

    def test_unbounded_by_default(self, cache_dir, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES", raising=False)
        lru = cache.LruCache()
        for i in range(50):
            lru[i] = i
        assert len(lru) == 50
        assert cache.stats()["evictions"] == 0
        assert cache.stats()["max_entries"] is None

    def test_cap_evicts_least_recently_used(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "2")
        lru = cache.LruCache()
        lru["a"] = 1
        lru["b"] = 2
        assert lru["a"] == 1   # touch: "b" becomes the eviction victim
        lru["c"] = 3
        assert "b" not in lru
        assert set(lru) == {"a", "c"}
        assert cache.stats()["evictions"] == 1

    def test_cap_reread_at_runtime(self, cache_dir, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES", raising=False)
        lru = cache.LruCache()
        for i in range(10):
            lru[i] = i
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "3")
        lru["new"] = 1  # insertion under the tightened cap trims to 3
        assert len(lru) == 3
        assert cache.stats()["evictions"] == 8

    def test_zero_or_empty_cap_means_unbounded(self, cache_dir, monkeypatch):
        for unbounded in ("0", "", "  "):
            monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", unbounded)
            assert cache.memory_max_entries() is None

    def test_invalid_cap_raises_config_error(self, cache_dir, monkeypatch):
        from repro.errors import ConfigError

        for bad in ("zero", "-4", "3.5"):
            monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", bad)
            with pytest.raises(ConfigError, match="REPRO_CACHE_MAX_ENTRIES"):
                cache.memory_max_entries()
        # The cache_dir fixture's teardown repopulates the global model
        # cache, which consults this variable — leave it valid.
        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES")

    def test_compile_workloads_respect_cap(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")  # memory tier only
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "2")
        engine = GraphEngine(ASCEND)
        engine._cache = cache.LruCache()
        for i in range(5):
            engine.compile_workload(self._work(i))
        assert len(engine._cache) == 2
        assert cache.stats()["evictions"] == 3


class TestArenaArtifacts:
    def test_store_load_round_trip(self, cache_dir, monkeypatch):
        import numpy as np

        monkeypatch.setenv("REPRO_PROGRAM_CACHE", "1")
        from repro.compiler import lower_workload
        work = OpWorkload(name="roundtrip",
                          gemms=(GemmWork(m=64, k=128, n=48, count=2),),
                          vector=(VectorWork(elems=10000),))
        program = lower_workload(work, ASCEND)
        assert program._arena is not None
        cache.store_arena("k1", program._arena)
        assert cache.stats()["arena_stores"] == 1
        loaded = cache.load_arena("k1")
        assert cache.stats()["arena_hits"] == 1
        assert loaded.n == program._arena.n
        for name, col in program._arena.columns().items():
            assert np.array_equal(getattr(loaded, name), col,
                                  equal_nan=True), name
        assert loaded.materialize() == program.instructions

    def test_miss_and_corruption_are_safe(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRAM_CACHE", "1")
        assert cache.load_arena("absent") is None
        assert cache.stats()["misses"] == 1
        path = cache.cache_dir() / "prog-bad.npz"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz")
        assert cache.load_arena("bad") is None
        assert cache.stats()["errors"] == 1

    def test_disabled_by_default(self, cache_dir, monkeypatch):
        monkeypatch.delenv("REPRO_PROGRAM_CACHE", raising=False)
        from repro.compiler import lower_workload
        work = OpWorkload(name="off", gemms=(GemmWork(m=32, k=32, n=32),))
        program = lower_workload(work, ASCEND)
        cache.store_arena("k2", program._arena)
        assert cache.stats()["arena_stores"] == 0
        assert cache.load_arena("k2") is None

    def test_compile_path_reuses_persisted_program(self, cache_dir,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_PROGRAM_CACHE", "1")
        work = OpWorkload(name="via-engine",
                          gemms=(GemmWork(m=48, k=96, n=32),))
        engine = GraphEngine(ASCEND)
        engine._cache = {}
        cold = engine.compile_workload(work)
        assert cache.stats()["arena_stores"] == 1

        # Drop the summary payload so the engine must rebuild from the
        # program artifact (arena load) instead of re-lowering.
        key = cache.content_key(ASCEND, work)
        (cache.cache_dir() / f"{key}.json").unlink()
        rebuilt_engine = GraphEngine(ASCEND)
        rebuilt_engine._cache = {}
        warm = rebuilt_engine.compile_workload(work)
        assert cache.stats()["arena_hits"] == 1
        assert warm.cycles == cold.cycles
        assert warm.instr_count == cold.instr_count
