"""Continuous-batching scheduler: policies, QoS, conservation, digests.

Most tests inject a stub cost model (plain arithmetic, no compiler) so
they pin *scheduling* behavior: the goodput ordering between continuous
and static batching, FCFS vs shortest-prefill-first admission, MPAM
floors under flood, and byte-identical reports per seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.core_configs import core_config_by_name
from repro.config.soc_configs import soc_config_by_name
from repro.errors import ConfigError, SchedulingError
from repro.models.gpt import GPT_TINY
from repro.serving import (KvLedger, Request, ServeSpec, StepCostModel,
                           TenantSpec, simulate_serving)
from repro.serving.cli import default_tenants

CORE = core_config_by_name("ascend-mini")
SOC = soc_config_by_name("ascend-310")


class StubCost:
    """Deterministic arithmetic step costs — no compiler involved."""

    def __init__(self, prefill_per_token=100, decode_step=50_000):
        self.prefill_per_token = prefill_per_token
        self.decode_step = decode_step

    def prefill_cycles(self, tokens):
        return self.prefill_per_token * tokens

    def decode_cycles(self, batch, max_context, steps=1):
        return self.decode_step

    def decode_bucket_end(self, max_context):
        return None   # one flat price: the bucket never ends


def _spec(tenants, seed=7, policy="fcfs", max_batch=8, kv_fraction=0.0):
    return ServeSpec(model=GPT_TINY, core=CORE, soc=SOC,
                     tenants=tuple(tenants), seed=seed, policy=policy,
                     max_batch=max_batch, kv_fraction=kv_fraction)


def _run(spec, mode="continuous", cost=None, trace=None):
    return simulate_serving(spec, mode=mode,
                            cost_model=cost or StubCost(), trace=trace,
                            with_manifest=False, with_counters=False)


LOADED = (
    TenantSpec(name="alpha", rate_rps=2000.0, requests=60,
               prefill_choices=(32, 64), decode_choices=(4, 8), slo_ms=1.0),
    TenantSpec(name="beta", rate_rps=1500.0, requests=40,
               prefill_choices=(64, 128), decode_choices=(8, 16),
               slo_ms=2.0),
)


class TestPinnedCampaign:
    """Fixed-seed regression: this exact campaign must reproduce these
    exact order-statistic percentiles (and digest) forever."""

    def test_pinned_percentiles(self):
        report = _run(_spec(LOADED))
        agg = report.aggregate
        assert agg["completed"] == 100 and agg["rejected"] == 0
        assert agg["latency"] == {
            "count": 100, "p50": 482830, "p90": 876762, "p99": 939469,
            "max": 950948, "mean": 477781}
        assert agg["ttft"]["p50"] == 128049
        assert agg["ttft"]["p99"] == 167069

    def test_pinned_digest(self):
        report = _run(_spec(LOADED))
        assert report.digest() == (
            "5c63074e3b4d14f72a78ec77b9189cb5"
            "8364978bc20f380519e5e123ee95a938")

    def test_repeat_run_byte_identical(self):
        assert _run(_spec(LOADED)).digest() == _run(_spec(LOADED)).digest()

    def test_seed_changes_digest(self):
        assert (_run(_spec(LOADED, seed=7)).digest()
                != _run(_spec(LOADED, seed=8)).digest())


class TestServeBenchmarkDesign:
    """The serve benchmark's design pinned by digest: gpt-tiny on
    ascend-310 (its ascend-mini core), the CLI's two default tenants of
    1000 requests, every knob at its default, as perfbench runs it.
    perfbench checks eight summary fields per campaign; the digest also
    holds the KV peaks and every tenant's block."""

    DIGESTS = {
        (0, "continuous"): "772f28ec54192b698488c78957a1e1fe"
                           "dc71a7cdc39106d525a759bf6d534752",
        (0, "static"): "b3706274f567a84966c69a2b7efc6491"
                       "b59fda9bc2c82c661735380dd084a510",
        (1, "continuous"): "6b655ffe0f08e932f31b8c4a6860074e"
                           "208925f24cb7fc7332e6ae9c56181123",
        (1, "static"): "d82481d0d07fb0f3c56a6493bb3be435"
                       "a838d02c7063fc9ac5e915f7e77a6d71",
    }

    def test_pinned_digests(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for knob in ("REPRO_CACHE", "REPRO_SERVE_PREDICT"):
            monkeypatch.delenv(knob, raising=False)
        core = SOC.core_groups[0][0]
        assert core.name == "ascend-mini"
        cost = StepCostModel(GPT_TINY, core)
        for (seed, mode), digest in self.DIGESTS.items():
            spec = ServeSpec(model=GPT_TINY, core=core, soc=SOC,
                             tenants=default_tenants(1000), seed=seed)
            report = simulate_serving(spec, mode=mode, cost_model=cost,
                                      with_manifest=False,
                                      with_counters=False)
            assert report.digest() == digest, (seed, mode)
            if (seed, mode) == (0, "continuous"):
                kv = report.payload["kv"]
                assert kv["peak_resident_bytes"] == 12_148_736


HEAVY = (
    TenantSpec(name="alpha", rate_rps=2000.0, requests=60,
               prefill_choices=(32, 64), decode_choices=(4, 8),
               slo_ms=20.0),
    TenantSpec(name="beta", rate_rps=1500.0, requests=40,
               prefill_choices=(64, 128), decode_choices=(8, 16),
               slo_ms=40.0),
)


class TestContinuousVsStatic:
    def test_continuous_strictly_beats_static_goodput(self):
        # Decode steps slow enough that the campaign is service-bound,
        # not arrival-bound — the regime where batching policy matters.
        spec = _spec(HEAVY)
        cost = StubCost(decode_step=400_000)
        cont = _run(spec, mode="continuous", cost=cost)
        stat = _run(spec, mode="static", cost=cost)
        assert cont.goodput_rps() > stat.goodput_rps()
        # ...because static pads every batch to its longest member:
        assert (stat.payload["makespan_cycles"]
                > cont.payload["makespan_cycles"])

    def test_both_modes_complete_the_whole_trace(self):
        spec = _spec(LOADED)
        for mode in ("continuous", "static"):
            agg = _run(spec, mode=mode).aggregate
            assert agg["completed"] + agg["rejected"] == agg["offered"]

    def test_unknown_mode_raises(self):
        with pytest.raises(ConfigError, match="mode"):
            _run(_spec(LOADED), mode="clairvoyant")


class TestSeedValidation:
    def test_negative_seed_rejected_by_spec(self):
        with pytest.raises(ConfigError, match="seed"):
            _spec(LOADED, seed=-1)

    def test_cli_negative_seed_exits_2(self, capsys):
        from repro.serving.cli import main

        assert main(["run", "--seed", "-1", "--requests", "1"]) == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err


class TestPolicies:
    """Two tenants, one long prompt arriving just before one short
    prompt, single-slot engine: FCFS serves the long request first,
    shortest-prefill-first lets the short one jump the queue."""

    TENANTS = (TenantSpec(name="long", rate_rps=1.0, requests=1,
                          prefill_choices=(512,), decode_choices=(4,)),
               TenantSpec(name="short", rate_rps=1.0, requests=1,
                          prefill_choices=(16,), decode_choices=(4,)))

    def _trace(self):
        # Simultaneous arrivals: the admission *policy* breaks the tie.
        return [Request(tenant="long", index=0, arrival_cycles=1,
                        prefill_tokens=512, decode_tokens=4),
                Request(tenant="short", index=0, arrival_cycles=1,
                        prefill_tokens=16, decode_tokens=4)]

    def _ttft(self, policy):
        spec = _spec(self.TENANTS, policy=policy, max_batch=1)
        report = _run(spec, trace=self._trace())
        return {name: t["ttft"]["p50"]
                for name, t in report.tenants.items()}

    def test_fcfs_serves_arrival_order(self):
        ttft = self._ttft("fcfs")
        assert ttft["long"] < ttft["short"]

    def test_spf_lets_short_jump_the_queue(self):
        ttft = self._ttft("spf")
        assert ttft["short"] < ttft["long"]
        # and the short request finishes its first token faster than it
        # would have waiting behind the 512-token prefill:
        assert ttft["short"] < self._ttft("fcfs")["short"]


class TestQosFloors:
    """A flood tenant fills the engine before a VIP tenant's burst
    lands.  With an MPAM floor the VIP's KV share is waiting for it."""

    def _ttft_vip(self, floor):
        flood = TenantSpec(name="flood", rate_rps=5000.0, requests=80,
                           prefill_choices=(128,), decode_choices=(64,),
                           slo_ms=1000.0)
        vip = TenantSpec(name="vip", rate_rps=2000.0, requests=10,
                         prefill_choices=(32,), decode_choices=(8,),
                         slo_ms=1000.0, priority=2, critical=True,
                         kv_floor=floor)
        spec = ServeSpec(model=GPT_TINY, core=CORE, soc=SOC,
                         tenants=(flood, vip), seed=3, policy="fcfs",
                         max_batch=64, kv_fraction=0.0)
        report = _run(spec)
        assert report.tenants["vip"]["completed"] == 10
        return report.tenants["vip"]["ttft"]["p50"]

    def test_floor_improves_vip_ttft_under_flood(self):
        assert self._ttft_vip(floor=0.5) < self._ttft_vip(floor=0.0)


class TestRejection:
    def test_infeasible_request_rejected_not_queued_forever(self):
        capped = TenantSpec(name="capped", rate_rps=10.0, requests=3,
                            prefill_choices=(256,), decode_choices=(64,),
                            kv_ceiling=0.001)
        spec = _spec([capped], max_batch=4)
        agg = _run(spec).aggregate
        assert agg["rejected"] == 3
        assert agg["completed"] == 0
        assert agg["offered"] == 3

    def test_rejections_counted_against_slo(self):
        capped = TenantSpec(name="capped", rate_rps=10.0, requests=3,
                            prefill_choices=(256,), decode_choices=(64,),
                            kv_ceiling=0.001)
        report = _run(_spec([capped], max_batch=4))
        assert report.tenants["capped"]["slo_attainment"] == 0.0


class TestProgressGuard:
    def test_long_generation_completes(self):
        # One offered request, 1,200 decode steps: progress is not
        # bounded by the number of requests.
        long_gen = TenantSpec(name="long", rate_rps=1.0, requests=1,
                              prefill_choices=(16,), decode_choices=(1200,))
        report = _run(_spec([long_gen]))
        assert report.aggregate["completed"] == 1
        assert report.payload["steps"]["iterations"] == 1201

    def test_refusing_ledger_raises(self, monkeypatch):
        # Nothing is ever admitted: the loop would spin at one clock.
        monkeypatch.setattr(KvLedger, "try_reserve",
                            lambda self, name, nbytes: False)
        with pytest.raises(SchedulingError, match="failed to make progress"):
            _run(_spec(LOADED))


class TestKvPressure:
    def test_peak_reserved_bounded_by_capacity(self):
        report = _run(_spec(LOADED, max_batch=64))
        kv = report.payload["kv"]
        assert 0 < kv["peak_reserved_bytes"] <= kv["total_bytes"]
        assert kv["peak_resident_bytes"] <= kv["peak_reserved_bytes"]


_tenant_st = st.builds(
    TenantSpec,
    name=st.sampled_from(["t0", "t1", "t2"]),
    rate_rps=st.floats(min_value=50.0, max_value=5000.0),
    requests=st.integers(min_value=1, max_value=12),
    prefill_choices=st.sampled_from([(16,), (32, 64), (128,)]),
    decode_choices=st.sampled_from([(2,), (4, 8)]),
    slo_ms=st.floats(min_value=0.1, max_value=100.0),
    kv_floor=st.sampled_from([0.0, 0.2]),
    kv_ceiling=st.sampled_from([0.7, 1.0]),
)


class TestConservationProperty:
    @given(tenants=st.lists(_tenant_st, min_size=1, max_size=3,
                            unique_by=lambda t: t.name),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           mode=st.sampled_from(["continuous", "static"]),
           policy=st.sampled_from(["fcfs", "spf"]),
           max_batch=st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_every_offered_request_is_terminal(self, tenants, seed, mode,
                                               policy, max_batch):
        """admitted + rejected == offered, nothing queued at the end,
        and the KV peaks stay inside capacity — for any tenant mix,
        seed, mode, policy, and batch ceiling."""
        spec = ServeSpec(model=GPT_TINY, core=CORE, soc=SOC,
                         tenants=tuple(tenants), seed=seed, policy=policy,
                         max_batch=max_batch, kv_fraction=0.0)
        report = _run(spec, mode=mode)
        agg = report.aggregate
        assert agg["completed"] + agg["rejected"] == agg["offered"]
        assert agg["offered"] == sum(t.requests for t in tenants)
        kv = report.payload["kv"]
        assert kv["peak_reserved_bytes"] <= kv["total_bytes"]
        assert kv["peak_resident_bytes"] <= kv["peak_reserved_bytes"]
        per_tenant = report.tenants
        for spec_t in tenants:
            block = per_tenant[spec_t.name]
            assert (block["completed"] + block["rejected"]
                    == block["offered"])
