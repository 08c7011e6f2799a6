"""Strict ``REPRO_*`` environment parsing.

The regression these pin: ``REPRO_SWEEP_WORKERS=4x`` used to fall back
to serial silently; a mistyped knob must raise
:class:`~repro.errors.ConfigError` naming the variable, not quietly
change behavior.  The same holds for a mistyped or deleted knob *name*
(``REPRO_SERVE_POLCY=spf`` used to leave the default policy in force):
every CLI rejects a ``REPRO_*`` name outside ``config/env.py``'s
``KNOBS``.
"""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.bench.runner import sweep_workers
from repro.config import env
from repro.config.env import (check_knob_names, env_choice, env_flag,
                              env_float, env_int)
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
# deliberate edit here, in config/env.py's KNOBS, and in the docs that
# list the knobs.
PINNED = (
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_CHAOS",
    "REPRO_DSE_KILL_AT",
    "REPRO_FAULTS",
    "REPRO_PREDICT",
    "REPRO_PREDICT_MODEL",
    "REPRO_PROFILE",
    "REPRO_SERVE_PREDICT",
    "REPRO_SWEEP_CHECKPOINT",
    "REPRO_SWEEP_RETRIES",
    "REPRO_SWEEP_TIMEOUT",
    "REPRO_SWEEP_WORKERS",
)


def _knob_literals():
    """Every string literal that is exactly a knob name, in every module
    of the package but the registry itself: a registered name that
    nothing reads is missing here."""
    pattern = re.compile(r"REPRO_[A-Z0-9_]+")
    registry = Path(env.__file__).resolve()
    found = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        if path.resolve() == registry:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and pattern.fullmatch(node.value)):
                found.add(node.value)
    return found


class TestKnobSet:
    def test_package_reads_exactly_the_pinned_knobs(self):
        assert env.KNOBS == PINNED
        assert tuple(sorted(_knob_literals())) == PINNED
        assert len(PINNED) == 13


def _never(args):
    raise AssertionError("the command ran despite an unknown knob name")


class TestUnknownKnobNames:
    """Every CLI rejects a ``REPRO_*`` name outside the registry — a
    misspelt or deleted knob — before its command does any work."""

    def test_registered_names_pass(self, monkeypatch):
        for name in PINNED:
            monkeypatch.setenv(name, "")
        check_knob_names()

    def test_unknown_names_are_listed(self, monkeypatch):
        monkeypatch.setenv("REPRO_ZZ_TYPO", "1")
        monkeypatch.setenv("REPRO_AA_TYPO", "1")
        with pytest.raises(ConfigError,
                           match="REPRO_AA_TYPO, REPRO_ZZ_TYPO; known: "):
            check_knob_names()

    def test_dse_cli(self, monkeypatch, capsys):
        from repro.dse import cli

        monkeypatch.setenv("REPRO_DSE_POPULATION", "96")
        monkeypatch.setattr(cli, "_cmd_report", _never)
        assert cli.main(["report", "--checkpoint", "missing.json"]) == 2
        assert "unknown environment knob(s) REPRO_DSE_POPULATION" \
            in capsys.readouterr().err

    def test_serving_cli(self, monkeypatch, capsys):
        from repro.serving import cli

        monkeypatch.setenv("REPRO_SERVE_POLCY", "spf")
        monkeypatch.setattr(cli, "_cmd_run", _never)
        assert cli.main(["run", "--requests", "1"]) == 2
        assert "unknown environment knob(s) REPRO_SERVE_POLCY" \
            in capsys.readouterr().err

    def test_predictor_cli(self, monkeypatch, capsys):
        from repro.perf.predictor import cli

        monkeypatch.setenv("REPRO_PREDICT_TOPK", "3")
        monkeypatch.setattr(cli, "_cmd_sweep", _never)
        assert cli.main(["sweep"]) == 2
        assert "unknown environment knob(s) REPRO_PREDICT_TOPK" \
            in capsys.readouterr().err

    def test_profiling_cli(self, monkeypatch, capsys):
        from repro.profiling import cli

        monkeypatch.setenv("REPRO_PROFILE_DIR", "traces")
        monkeypatch.setattr(cli, "_cmd_list", _never)
        assert cli.main(["list"]) == 2
        assert "unknown environment knob(s) REPRO_PROFILE_DIR" \
            in capsys.readouterr().err

    def test_garbage_value_of_a_known_knob_still_fails(self, monkeypatch,
                                                       capsys):
        from repro.serving.cli import main

        monkeypatch.setenv("REPRO_SERVE_PREDICT", "yes")
        assert main(["run", "--requests", "1"]) == 2
        assert "REPRO_SERVE_PREDICT='yes' is not a valid value" \
            in capsys.readouterr().err
