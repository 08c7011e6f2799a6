"""Strict validation of the serving settings.

Same contract as ``test_env.py`` / ``test_sweep_env.py``: a mistyped
serving setting must fail naming the setting, never silently change
which campaign gets measured; unset settings mean the built-in
defaults, byte-identically.  ``REPRO_SERVE_PREDICT`` is the one serving
environment knob.  Admission policy, batch ceiling and KV fraction have
one source each, a :class:`~repro.serving.ServeSpec` field that the
``run`` CLI sets from its flags: the spec and the KV budget reject bad
values, argparse rejects flag values that do not parse.
"""

import pytest

from repro.config.soc_configs import soc_config_by_name
from repro.errors import ConfigError
from repro.models.gpt import GPT_TINY
from repro.serving import KvCapacity, ServeSpec
from repro.serving.cli import default_tenants, main
from repro.serving.settings import serve_max_batch, serve_predict

SOC = soc_config_by_name("ascend-310")


@pytest.fixture(autouse=True)
def _clean_knobs(monkeypatch):
    monkeypatch.delenv("REPRO_SERVE_PREDICT", raising=False)


def _spec(**settings):
    return ServeSpec(model=GPT_TINY, core=SOC.core_groups[0][0], soc=SOC,
                     tenants=default_tenants(1), **settings)


def _run_cli(capsys, *flags):
    """``serving run`` on one request per tenant: exit code and stderr."""
    try:
        code = main(["run", "--requests", "1", *flags])
    except SystemExit as exc:       # argparse rejected a flag value
        code = exc.code
    return code, capsys.readouterr().err


class TestDefaults:
    def test_unset_means_defaults(self):
        spec = _spec()
        assert (spec.policy, spec.max_batch, spec.kv_fraction) \
            == ("fcfs", 32, 0.3)
        assert serve_max_batch() == spec.max_batch
        assert serve_predict() is False


class TestPolicy:
    @pytest.mark.parametrize("value", ["fcfs", "spf"])
    def test_valid(self, value):
        assert _spec(policy=value).policy == value

    @pytest.mark.parametrize("garbage", ["FCFS", "sjf", "round-robin", "1"])
    def test_garbage_raises_naming_the_variable(self, capsys, garbage):
        with pytest.raises(ConfigError, match="policy"):
            _spec(policy=garbage)
        code, err = _run_cli(capsys, "--policy", garbage)
        assert code == 2 and "--policy" in err


class TestMaxBatch:
    def test_valid(self):
        assert _spec(max_batch=8).max_batch == 8

    @pytest.mark.parametrize("garbage", ["eight", "2.5", "4x", "0x8"])
    def test_garbage_raises(self, capsys, garbage):
        code, err = _run_cli(capsys, "--max-batch", garbage)
        assert code == 2 and "--max-batch" in err

    @pytest.mark.parametrize("bad", ["0", "-4"])
    def test_below_one_raises(self, capsys, bad):
        with pytest.raises(ConfigError, match="max_batch"):
            _spec(max_batch=int(bad))
        code, err = _run_cli(capsys, "--max-batch", bad)
        assert code == 2 and "max_batch must be >= 1" in err


class TestKvFraction:
    @pytest.mark.parametrize("value,expected", [
        ("0", 0.0), ("0.5", 0.5), ("1", 1.0)])
    def test_valid(self, value, expected):
        spec = _spec(kv_fraction=float(value))
        capacity = KvCapacity.for_design_point(
            spec.model, spec.core, spec.soc, spec.kv_fraction)
        assert capacity.gm_bytes == int(
            (SOC.dram_bytes - capacity.weight_bytes) * expected)

    @pytest.mark.parametrize("garbage", ["half", "30%", "inf", "0.3.1"])
    def test_garbage_raises(self, capsys, garbage):
        # "inf" parses as a float; the KV budget then rejects it.
        code, err = _run_cli(capsys, "--kv-fraction", garbage)
        assert code == 2
        assert "--kv-fraction" in err or "kv_fraction must lie" in err

    @pytest.mark.parametrize("bad", ["-0.1", "1.5"])
    def test_out_of_range_raises(self, capsys, bad):
        code, err = _run_cli(capsys, "--kv-fraction", bad)
        assert code == 2 and "kv_fraction must lie in [0, 1]" in err


class TestPredictFlag:
    @pytest.mark.parametrize("value,expected", [("1", True), ("0", False)])
    def test_valid(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_SERVE_PREDICT", value)
        assert serve_predict() is expected

    @pytest.mark.parametrize("garbage", ["true", "yes", "2", "enable"])
    def test_garbage_raises(self, monkeypatch, garbage):
        monkeypatch.setenv("REPRO_SERVE_PREDICT", garbage)
        with pytest.raises(ConfigError, match="REPRO_SERVE_PREDICT"):
            serve_predict()
