"""The ``REPRO_PREDICT`` switch.

``REPRO_PREDICT=1`` enables the predictor fast tier in sweeps and
benchmarks that support triage.  Off by default: published figure/table
numbers are always simulated, and with the switch off not a single code
path consults the predictor.  The artifact path is
``REPRO_PREDICT_MODEL`` (:func:`~repro.perf.predictor.train.default_artifact_path`).

Parsing is strict (:mod:`repro.config.env`): anything but ``0``/``1``
raises :class:`~repro.errors.ConfigError` instead of silently changing
what a sweep simulates.
"""

from __future__ import annotations

from ...config.env import env_flag

__all__ = ["predict_enabled"]


def predict_enabled() -> bool:
    """Whether the predictor fast tier is switched on (off by default)."""
    return env_flag("REPRO_PREDICT", default=False)
