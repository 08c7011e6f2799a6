"""RunManifest: enough provenance to rerun (or distrust) any number.

Every exported artifact — Chrome trace, counters JSON, benchmark
figure — can carry one of these: what ran (model, design point), under
which environment switches (every ``REPRO_*`` knob verbatim), on which
code (git describe), with which toolchain (Python/numpy versions), and
what the compile cache and fault injector were doing at the time.  A
manifest is a plain dict underneath, so it JSON round-trips and embeds
directly in the Chrome trace's ``otherData``.

The code a process runs cannot change under it, so ``git`` is the
tree's describe at the process's first collection: :func:`git_describe`
runs its subprocess once and is memoized from then on.  The knobs, the
cache stats and the fault counters do change within a process, so every
:meth:`RunManifest.collect` reads them afresh.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["RunManifest", "git_describe"]


@functools.lru_cache(maxsize=None)
def git_describe() -> str:
    """``git describe --always --dirty`` of the repo this code runs from,
    or ``"unknown"`` outside a checkout / without git.

    Memoized: the first call runs ``git`` (a few milliseconds), later
    calls in the process return its answer.  ``git_describe.cache_clear()``
    forgets it."""
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if result.returncode != 0:
        return "unknown"
    return result.stdout.strip() or "unknown"


def _repro_environment() -> Dict[str, str]:
    """Every ``REPRO_*`` variable, verbatim — the knobs that can change
    a run's numbers."""
    environ = os.environ
    return {name: environ[name]
            for name in sorted(name for name in environ
                               if name.startswith("REPRO_"))}


@dataclass
class RunManifest:
    """Provenance of one profiled run."""

    model: str = ""
    config: str = ""
    extras: Dict[str, object] = field(default_factory=dict)
    git: str = ""
    python: str = ""
    numpy: str = ""
    platform: str = ""
    env: Dict[str, str] = field(default_factory=dict)
    cache: Dict[str, int] = field(default_factory=dict)
    faults: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def collect(cls, model: str = "", config: str = "",
                extras: Optional[Dict[str, object]] = None) -> "RunManifest":
        """Snapshot the current process."""
        import numpy

        from ..compiler import cache as compile_cache
        from ..reliability.injector import active_injector

        injector = active_injector()
        return cls(
            model=model,
            config=config,
            extras=dict(extras or {}),
            git=git_describe(),
            python=sys.version.split()[0],
            numpy=numpy.__version__,
            platform=platform.platform(),
            env=_repro_environment(),
            cache=dict(compile_cache.stats()),
            faults=(dict(injector.counters) if injector is not None else {}),
        )

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "config": self.config,
            "extras": dict(self.extras),
            "git": self.git,
            "python": self.python,
            "numpy": self.numpy,
            "platform": self.platform,
            "env": dict(self.env),
            "cache": dict(self.cache),
            "faults": dict(self.faults),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        return cls(
            model=str(payload.get("model", "")),
            config=str(payload.get("config", "")),
            extras=dict(payload.get("extras", {})),
            git=str(payload.get("git", "")),
            python=str(payload.get("python", "")),
            numpy=str(payload.get("numpy", "")),
            platform=str(payload.get("platform", "")),
            env=dict(payload.get("env", {})),
            cache=dict(payload.get("cache", {})),
            faults=dict(payload.get("faults", {})),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
