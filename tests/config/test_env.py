"""Strict ``REPRO_*`` environment parsing.

The regression these pin: ``REPRO_SWEEP_WORKERS=4x`` used to fall back
to serial silently; a mistyped knob must raise
:class:`~repro.errors.ConfigError` naming the variable, not quietly
change behavior.
"""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.bench.runner import sweep_workers
from repro.config.env import env_choice, env_flag, env_float, env_int
from repro.errors import ConfigError

_VAR = "REPRO_TEST_KNOB"


class TestEnvInt:
    def test_unset_and_blank_mean_default(self, monkeypatch):
        monkeypatch.delenv(_VAR, raising=False)
        assert env_int(_VAR, default=7) == 7
        monkeypatch.setenv(_VAR, "   ")
        assert env_int(_VAR, default=7) == 7

    def test_plain_integers(self, monkeypatch):
        for raw, expect in (("4", 4), (" 12 ", 12), ("+3", 3), ("-2", -2)):
            monkeypatch.setenv(_VAR, raw)
            assert env_int(_VAR) == expect

    @pytest.mark.parametrize("garbage", [
        "4x", "x4", "4 8", "1_000", "0b101", "1.5", "four", "inf",
    ])
    def test_garbage_raises_naming_the_variable(self, monkeypatch, garbage):
        monkeypatch.setenv(_VAR, garbage)
        with pytest.raises(ConfigError, match=_VAR):
            env_int(_VAR)

    def test_minimum_enforced(self, monkeypatch):
        monkeypatch.setenv(_VAR, "1")
        with pytest.raises(ConfigError, match="minimum"):
            env_int(_VAR, minimum=2)
        monkeypatch.setenv(_VAR, "2")
        assert env_int(_VAR, minimum=2) == 2


class TestEnvFloat:
    def test_accepted_forms(self, monkeypatch):
        for raw, expect in (("2.5", 2.5), ("1e3", 1000.0), (".5", 0.5),
                            ("3", 3.0), ("-0.25", -0.25)):
            monkeypatch.setenv(_VAR, raw)
            assert env_float(_VAR) == expect

    @pytest.mark.parametrize("garbage", [
        "2.5x", "inf", "-inf", "nan", "1_000.0", "1e", "..5",
    ])
    def test_garbage_rejected(self, monkeypatch, garbage):
        monkeypatch.setenv(_VAR, garbage)
        with pytest.raises(ConfigError, match=_VAR):
            env_float(_VAR)

    def test_minimum_enforced(self, monkeypatch):
        monkeypatch.setenv(_VAR, "0.1")
        with pytest.raises(ConfigError, match="minimum"):
            env_float(_VAR, minimum=0.5)


class TestEnvFlagAndChoice:
    def test_flag_is_strict_zero_or_one(self, monkeypatch):
        monkeypatch.delenv(_VAR, raising=False)
        assert env_flag(_VAR, default=True) is True
        for raw, expect in (("0", False), ("1", True)):
            monkeypatch.setenv(_VAR, raw)
            assert env_flag(_VAR) is expect
        for raw in ("true", "yes", "2", "on"):
            monkeypatch.setenv(_VAR, raw)
            with pytest.raises(ConfigError, match=_VAR):
                env_flag(_VAR)

    def test_choice_validates_and_lists_options(self, monkeypatch):
        monkeypatch.setenv(_VAR, "arena")
        assert env_choice(_VAR, "objects", ("arena", "objects")) == "arena"
        monkeypatch.setenv(_VAR, "aerna")
        with pytest.raises(ConfigError, match="'arena', 'objects'"):
            env_choice(_VAR, "objects", ("arena", "objects"))
        monkeypatch.setenv(_VAR, "")
        assert env_choice(_VAR, "objects", ("arena", "objects")) == "objects"


class TestWorkerKnobsIntegration:
    """The audited call sites fail loudly end to end."""

    def test_sweep_workers_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4x")
        with pytest.raises(ConfigError, match="REPRO_SWEEP_WORKERS"):
            sweep_workers(8)

    def test_sweep_workers_caps_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        assert sweep_workers(8) == 2
        assert sweep_workers(1) == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "0")
        assert sweep_workers(8) == 1

    def test_profile_flag_is_strict(self, monkeypatch):
        import repro.profiling.session as session_mod

        monkeypatch.setenv("REPRO_PROFILE", "yes")
        session_mod._ENV_MEMO = None
        try:
            with pytest.raises(ConfigError, match="REPRO_PROFILE"):
                session_mod.active_session()
        finally:
            session_mod._ENV_MEMO = None
            session_mod._ENV_SESSION = None


# Every environment knob the program reads.  Adding or dropping one is a
# deliberate edit here (and in the docs that list the knobs).
KNOBS = (
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_CHAOS",
    "REPRO_DSE_DIR",
    "REPRO_DSE_EPSILON",
    "REPRO_DSE_GENERATIONS",
    "REPRO_DSE_KILL_AT",
    "REPRO_DSE_MAX_PROMOTE",
    "REPRO_DSE_POPULATION",
    "REPRO_DSE_STRATEGY",
    "REPRO_DSE_TOPK",
    "REPRO_FAULTS",
    "REPRO_PREDICT",
    "REPRO_PREDICT_EPSILON",
    "REPRO_PREDICT_MODEL",
    "REPRO_PREDICT_TOPK",
    "REPRO_PROFILE",
    "REPRO_SERVE_KV_FRACTION",
    "REPRO_SERVE_MAX_BATCH",
    "REPRO_SERVE_POLICY",
    "REPRO_SERVE_PREDICT",
    "REPRO_SWEEP_CHECKPOINT",
    "REPRO_SWEEP_RETRIES",
    "REPRO_SWEEP_TIMEOUT",
    "REPRO_SWEEP_WORKERS",
)


def _knob_literals():
    """Every string literal in the package that is exactly a knob name."""
    pattern = re.compile(r"REPRO_[A-Z0-9_]+")
    found = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and pattern.fullmatch(node.value)):
                found.add(node.value)
    return found


class TestKnobSet:
    def test_package_reads_exactly_the_pinned_knobs(self):
        assert tuple(sorted(_knob_literals())) == KNOBS
        assert len(KNOBS) == 25
