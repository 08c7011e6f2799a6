"""Layer spans for the traced benchmark run.

Only the benchmark's own files record spans: the tracer wraps the
module attributes through which the simulator's layers call each other
(graph build, cache keying, cache I/O, lowering, drain) and restores
them afterwards, so the program under test is not edited.  Each span
adds its duration to its parent, which gives every layer its *self*
time: span duration minus the part covered by child spans.  The
benchmark wraps each whole operation in an ``orchestration`` span, so
that layer's self time is whatever the operation's own loop (the
compile loop, the serving scheduler, the DSE generation loop) spent
outside every named layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple

# (module, attribute, layer).  Callers reach these through the module
# attribute at call time, so replacing the attribute covers every call.
# A target a refactor removed is skipped; its layer then reads 0.
PATCH_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.models", "build_model", "graph_build"),
    ("repro.serving.stepcost", "build_gpt", "graph_build"),
    ("repro.serving.stepcost", "build_gpt_decode", "graph_build"),
    ("repro.compiler.cache", "content_key", "cache_key"),
    ("repro.compiler.cache", "model_content_key", "cache_key"),
    ("repro.compiler.cache", "load", "cache_io"),
    ("repro.compiler.cache", "store", "cache_io"),
    ("repro.compiler.graph_engine", "lower_workload", "lower"),
    ("repro.compiler.graph_engine", "schedule_summary", "drain"),
)

LAYERS = ("graph_build", "cache_key", "cache_io", "lower", "drain",
          "orchestration")


class Tracer:
    """Self time and call count per layer, kept in memory."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self._children: List[float] = []
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def span(*args, **kwargs):
            start = time.perf_counter()
            self._children.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[layer] += duration - self._children.pop()
                self.calls[layer] += 1
                if self._children:
                    self._children[-1] += duration
        return span

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def install(self) -> None:
        for module_name, attr, layer in PATCH_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self.wrap(layer, original))
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)
