"""Compiler-tier RAS: cache corruption/quarantine and the timing-fault
cache bypass."""

import numpy as np
import pytest

from repro.compiler import cache
from repro.reliability import fault_scope, parse_fault_spec

pytestmark = pytest.mark.faults


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.reset_stats()
    yield tmp_path
    cache.reset_stats()


class TestCacheQuarantine:
    def test_manually_corrupted_artifact_quarantined(self, cache_dir):
        cache.store("deadbeef", {"payload": 1})
        path = cache.cache_dir() / "deadbeef.json"
        path.write_text("{not json", encoding="utf-8")
        assert cache.load("deadbeef") is None
        assert not path.exists()  # moved, not re-read forever
        assert (cache.quarantine_dir() / "deadbeef.json").exists()
        stats = cache.stats()
        assert stats["errors"] >= 1
        assert stats["quarantined"] >= 1

    def test_injected_corruption_recovers_via_recompile_path(self, cache_dir):
        plan = parse_fault_spec("seed=1;cache:p=1")
        with fault_scope(plan) as inj:
            cache.store("cafef00d", {"payload": 2})
            assert inj.counters["cache_corrupted"] == 1
            # The injected bit-rot is caught on load: miss + quarantine,
            # never a crash or silently wrong payload.
            assert cache.load("cafef00d") is None
        assert (cache.quarantine_dir() / "cafef00d.json").exists()
        # A clean store under the same key works again afterwards.
        cache.store("cafef00d", {"payload": 3})
        assert cache.load("cafef00d")["payload"] == 3


class TestTimingCacheBypass:
    def test_stall_campaign_not_masked_by_warm_cache(self, cache_dir):
        """Stats tiers are suspended during timing-fault campaigns.

        A warm cache would otherwise serve clean schedules (masking the
        faults), and the faulted schedules must never be stored for
        later clean runs.
        """
        from repro.compiler import GraphEngine
        from repro.config import ASCEND
        from repro.graph.workload import GemmWork, OpWorkload

        work = OpWorkload(name="ras", gemms=(GemmWork(m=64, k=64, n=64),),
                          vector=(), weight_bytes=8192, input_bytes=8192,
                          output_bytes=8192)

        layers = {}

        def compile_cycles():
            engine = GraphEngine(ASCEND)
            engine._cache = layers
            return engine.compile_workload(work).cycles

        clean = compile_cycles()  # warms the layer memory tier
        plan = parse_fault_spec("seed=4;stall:factor=8,p=1")
        with fault_scope(plan):
            faulted = compile_cycles()
        assert faulted > clean
        assert cache.stats()["fault_bypasses"] >= 1
        # The faulted schedule was not stored: clean runs still match.
        assert compile_cycles() == clean
