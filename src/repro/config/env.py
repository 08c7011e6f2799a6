"""One shared parser for ``REPRO_*`` environment knobs.

Every knob that used to hand-roll its own ``os.environ.get`` +
``int(...)`` now routes through these helpers, so a typo'd value fails
the same way everywhere: a :class:`~repro.errors.ConfigError` that names
the variable, echoes the offending value, and lists what is accepted —
instead of a bare ``ValueError`` from ``int()`` or a silent fallback to
the default.

Numeric parsing is *strict*: exactly one decimal integer (or float), no
trailing garbage, no ``_`` digit separators, no ``inf``/``nan``.  Python's
own ``int()``/``float()`` accept several of those, and the pre-audit
parsers accepted worse (``REPRO_SWEEP_WORKERS=4x`` silently fell back to
serial); a mistyped knob must fail loudly, not quietly change behavior.
The same holds for a mistyped or retired *name*: :data:`KNOBS` lists
every knob the program reads, and each CLI calls
:func:`check_knob_names` before it does any work.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from ..errors import ConfigError

__all__ = ["KNOBS", "check_knob_names", "env_choice", "env_int",
           "env_float", "env_flag", "env_scope"]

# Every environment knob the program reads, sorted.  Each is parsed
# where it is read, through the helpers below.
KNOBS = (
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_CHAOS",
    "REPRO_DSE_KILL_AT",
    "REPRO_FAULTS",
    "REPRO_PREDICT",
    "REPRO_PREDICT_MODEL",
    "REPRO_SERVE_PREDICT",
    "REPRO_SWEEP_CHECKPOINT",
    "REPRO_SWEEP_RETRIES",
    "REPRO_SWEEP_TIMEOUT",
    "REPRO_SWEEP_WORKERS",
)

# Exactly one optionally-signed decimal integer / float, nothing else.
_INT_RE = re.compile(r"^[+-]?[0-9]+$")
_FLOAT_RE = re.compile(r"^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$")


def check_knob_names() -> None:
    """Raise :class:`ConfigError` naming every set ``REPRO_*`` variable
    that is not in :data:`KNOBS`: a misspelt or retired knob would
    otherwise leave its default silently in force."""
    unknown = sorted(name for name in os.environ
                     if name.startswith("REPRO_") and name not in KNOBS)
    if unknown:
        raise ConfigError(
            f"unknown environment knob(s) {', '.join(unknown)}; known: "
            + ", ".join(KNOBS))


def env_choice(name: str, default: str, choices: Sequence[str]) -> str:
    """The value of ``name``, validated against ``choices``.

    Unset or empty means ``default``.  Anything else must be one of
    ``choices`` (exact match after stripping whitespace).
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    value = raw.strip()
    if value not in choices:
        raise ConfigError(
            f"{name}={raw!r} is not a valid value; accepted: "
            + ", ".join(repr(c) for c in choices)
        )
    return value


def env_flag(name: str, default: bool = False) -> bool:
    """The boolean value of a ``0``/``1`` switch.

    Unset or empty means ``default``; anything except an exact ``0`` or
    ``1`` raises :class:`ConfigError` — boolean knobs do not guess what
    ``yes``/``true``/``2`` were meant to be.
    """
    return env_choice(name, "1" if default else "0", ("0", "1")) == "1"


def env_int(name: str, default: Optional[int] = None,
            minimum: Optional[int] = None) -> Optional[int]:
    """The integer value of ``name``.

    Unset or empty means ``default``.  Non-integers (including trailing
    garbage like ``4x``), and integers below ``minimum``, raise
    :class:`ConfigError` naming the variable.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    value = raw.strip()
    if not _INT_RE.match(value):
        accepted = "an integer"
        if minimum is not None:
            accepted = f"an integer >= {minimum}"
        raise ConfigError(
            f"{name}={raw!r} is not a valid value; accepted: {accepted}"
        )
    parsed = int(value)
    if minimum is not None and parsed < minimum:
        raise ConfigError(
            f"{name}={raw!r} is below the minimum of {minimum}"
        )
    return parsed


def env_float(name: str, default: Optional[float] = None,
              minimum: Optional[float] = None) -> Optional[float]:
    """The float value of ``name`` (same semantics as :func:`env_int`)."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    value = raw.strip()
    if not _FLOAT_RE.match(value):
        raise ConfigError(
            f"{name}={raw!r} is not a valid value; accepted: a number"
            + (f" >= {minimum}" if minimum is not None else "")
        )
    parsed = float(value)
    if minimum is not None and parsed < minimum:
        raise ConfigError(
            f"{name}={raw!r} is below the minimum of {minimum}"
        )
    return parsed


@contextmanager
def env_scope(**pairs: object) -> Iterator[None]:
    """Temporarily set environment knobs, restoring on exit."""
    previous = {key: os.environ.get(key) for key in pairs}
    os.environ.update({key: str(value) for key, value in pairs.items()})
    try:
        yield
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
