"""Campaign counters from per-bucket sums, against the per-layer oracle
and pinned.

:meth:`StepCostModel.aggregate_counters` adds one ``PerfCounters`` per
charged bucket, from the sums of its layers' fields; the oracle in
``counters_oracle.py`` adds every layer of every charged bucket one at
a time.  They must agree on perfbench's serve campaigns (buckets priced
by compiling and read back from the bucket tier), on campaigns scoped
by ``since`` on a shared cost model, and on predictor-priced buckets,
which have no layers.  The digests pin ``report.counters`` of
perfbench's serve design: gpt-tiny on ascend-310, the CLI's two default
tenants of 1000 requests.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.config.core_configs import core_config_by_name
from repro.config.soc_configs import soc_config_by_name
from repro.models.gpt import GPT_TINY, GptConfig
from repro.serving import ServeSpec, StepCostModel, simulate_serving
from repro.serving.cli import default_tenants

from tests.serving.counters_oracle import oracle_aggregate_counters

SOC = soc_config_by_name("ascend-310")
SERVE_CORE = SOC.core_groups[0][0]
CORE = core_config_by_name("ascend-mini")
TINY = GptConfig(name="gpt-test", hidden=64, layers=2, heads=2,
                 intermediate=128, vocab_size=512, max_context=128)


def _digest(counters):
    text = json.dumps(counters.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    for knob in ("REPRO_CACHE", "REPRO_SERVE_PREDICT"):
        monkeypatch.delenv(knob, raising=False)
    return tmp_path


class TestServeBenchmarkCounters:
    DIGESTS = {
        (0, "continuous"): "3d259895a76aaf64749117b5bfbbaeb5"
                           "a3e5b3458f932f7ed6025b1b5ec8ccf0",
        (0, "static"): "26c750c31e1eac7780cf7cd0d399ae7c"
                       "009d8ebe418a4b9418a1ea34e3b9c4b3",
        (1, "continuous"): "9227b118069383aecd7c94962e1d11fd"
                           "8c7c9ef70a2a72895dc52747cb08cba6",
        (1, "static"): "9e08961d6e3df2d8a4bbbcf4ba2258c6"
                       "6373a1aa2db451511870e91ec931eba2",
    }
    # Seed 0's two campaigns on one cost model, all of its buckets.
    SHARED = ("23c620ad379903e2609d31b0caf7f9dc"
              "2c60575289caaa5556c0c07ed4f04de8")

    @staticmethod
    def _run(seed, mode, cost):
        spec = ServeSpec(model=GPT_TINY, core=SERVE_CORE, soc=SOC,
                         tenants=default_tenants(1000), seed=seed)
        return simulate_serving(spec, mode=mode, cost_model=cost,
                                with_manifest=False)

    def test_a_fresh_cost_model_per_campaign(self, empty_cache):
        # The first campaign compiles its buckets, the later ones read
        # them back from the bucket tier.
        for (seed, mode), digest in self.DIGESTS.items():
            cost = StepCostModel(GPT_TINY, SERVE_CORE)
            counters = self._run(seed, mode, cost).counters
            assert _digest(counters) == digest, (seed, mode)
            assert (counters.to_dict()
                    == oracle_aggregate_counters(cost).to_dict())

    def test_one_cost_model_shared_by_two_campaigns(self, empty_cache):
        cost = StepCostModel(GPT_TINY, SERVE_CORE)
        for mode in ("continuous", "static"):
            before = dict(cost.invocations())
            counters = self._run(0, mode, cost).counters
            assert _digest(counters) == self.DIGESTS[0, mode], mode
            assert (counters.to_dict()
                    == oracle_aggregate_counters(cost, before).to_dict())
        whole = cost.aggregate_counters()
        assert _digest(whole) == self.SHARED
        assert whole.to_dict() == oracle_aggregate_counters(cost).to_dict()


def _charge(cost):
    """Price a few buckets of TINY, charging each a different count."""
    cost.prefill_cycles(40)
    cost.prefill_cycles(2 * TINY.max_context + 5)
    cost.decode_cycles(3, 50, steps=4)
    cost.decode_cycles(4, 33)
    cost.decode_cycles(1, 16, steps=0)   # priced, never charged
    cost.decode_cycles(8, 100, steps=7)


def test_since_scopes_the_sums_as_it_scoped_the_layers():
    cost = StepCostModel(TINY, CORE, use_predictor=False)
    _charge(cost)
    before = dict(cost.invocations())
    cost.decode_cycles(4, 60, steps=2)
    cost.decode_cycles(16, 128, steps=3)
    for since in (None, before, cost.invocations()):
        assert (cost.aggregate_counters(since).to_dict()
                == oracle_aggregate_counters(cost, since).to_dict())


def test_predictor_buckets_have_no_layers(monkeypatch):
    class Flat:
        def predict(self, features):
            return np.full(len(features), 1000.0)

    monkeypatch.setattr(StepCostModel, "_load_predictor",
                        lambda self: Flat())
    cost = StepCostModel(TINY, CORE, use_predictor=True)
    _charge(cost)
    counters = cost.aggregate_counters()
    assert counters.to_dict() == oracle_aggregate_counters(cost).to_dict()
    assert counters.layers == 0 and counters.total_cycles > 0
    assert counters.busy_by_pipe == [0] * len(counters.busy_by_pipe)
