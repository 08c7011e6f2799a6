"""The serving layer's environment knob, and its batch-size default.

* ``REPRO_SERVE_PREDICT`` — ``1`` prices engine steps with the learned
  cycle predictor (:mod:`repro.perf.predictor`) instead of compiling +
  scheduling each (phase, batch, context) bucket.  Off by default:
  reported numbers are simulated unless explicitly opted in.  Parsing
  is strict (:mod:`repro.config.env`): anything but ``0``/``1`` raises
  :class:`~repro.errors.ConfigError` naming the variable.

Admission policy, batch ceiling and KV fraction are
:class:`~repro.serving.scheduler.ServeSpec` fields, which the ``run``
CLI sets from its flags.
"""

from __future__ import annotations

from ..config.env import env_flag

__all__ = ["serve_max_batch", "serve_predict"]


def serve_max_batch() -> int:
    """``ServeSpec``'s default in-flight request ceiling, for callers that
    size a step-cost grid by it (perfbench's serve set-up)."""
    from .scheduler import ServeSpec

    return ServeSpec.max_batch


def serve_predict() -> bool:
    """Whether step costs come from the predictor fast tier (default off)."""
    return env_flag("REPRO_SERVE_PREDICT", default=False)
