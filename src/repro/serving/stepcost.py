"""Per-engine-step cycle costs from the compile cache (or the predictor).

The serving simulator advances in *iterations*; each iteration's cycle
cost is the compiled cost of the work actually batched into it:

* a **prefill step** of ``T`` total prompt tokens prices as the compiled
  prefill graph at the bucketed sequence length (chunked at the model's
  ``max_context``);
* a **decode step** of ``B`` requests whose longest context is ``C``
  prices as the compiled single-token decode graph at the bucketed
  ``(B, C)``.

Buckets are powers of two, so a million-request campaign touches a few
dozen distinct compiles — each one a content-addressed hit in
:mod:`repro.compiler.cache` after the first — and every priced step is
an exact event-engine number, not an analytic estimate.  Identical
transformer layers inside each graph dedupe structurally, so a bucket
costs roughly one layer compile.

``use_predictor`` (the ``REPRO_SERVE_PREDICT`` knob) swaps the event
engine for the learned cycle predictor
(:mod:`repro.perf.predictor`): same graphs, same feature schema, ~three
orders of magnitude faster per cold bucket — the tier that makes
million-request × many-design-point campaigns tractable.  Predicted
campaigns carry no per-pipe counters (nothing was scheduled), and the
report says so.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Optional, Tuple

import numpy as np

from ..compiler.graph_engine import CompiledModel, GraphEngine
from ..config.core_configs import CoreConfig
from ..dtypes import DType, FP16
from ..errors import ConfigError
from ..models.gpt import GptConfig, build_gpt, build_gpt_decode
from ..profiling.counters import PerfCounters
from .settings import serve_predict

__all__ = ["StepCostModel", "bucket_pow2"]

_LAYER_FIELDS = (
    "cycles", "cube_cycles", "vector_cycles", "mte1_cycles", "mte2_cycles",
    "mte3_cycles", "l1_read_bytes", "l1_write_bytes", "gm_read_bytes",
    "gm_write_bytes", "instr_count",
)


def bucket_pow2(value: int, minimum: int = 1,
                maximum: Optional[int] = None) -> int:
    """Round ``value`` up to a power of two within [minimum, maximum]."""
    if value < 1:
        raise ConfigError(f"bucket of non-positive value {value}")
    bucket = max(minimum, 1 << (value - 1).bit_length())
    if maximum is not None:
        bucket = min(bucket, maximum)
    return bucket


class StepCostModel:
    """Memoized (phase, batch, context) -> cycles for one design point."""

    # Floor buckets keep the distinct-compile count low without
    # distorting costs: a 3-token prompt and a 16-token prompt genuinely
    # cost the same padded cube tiles.
    MIN_TOKEN_BUCKET = 16
    MIN_BATCH_BUCKET = 1

    def __init__(self, model: GptConfig, core: CoreConfig,
                 use_predictor: Optional[bool] = None,
                 dtype: DType = FP16) -> None:
        self.model = model
        self.core = core
        self.dtype = dtype
        self.engine = GraphEngine(core)
        self.use_predictor = (serve_predict() if use_predictor is None
                              else use_predictor)
        self._predictor = self._load_predictor() if self.use_predictor else None
        # bucket key -> (cycles, compiled model or None under the predictor)
        self._memo: Dict[Tuple[str, int, int],
                         Tuple[int, Optional[CompiledModel]]] = {}
        self._counts: Dict[Tuple[str, int, int], int] = {}

    def _load_predictor(self):
        # Strict by design: REPRO_SERVE_PREDICT=1 with no loadable
        # artifact raises load_artifact's ConfigError (which names the
        # training command) rather than silently falling back to the
        # event engine and reporting numbers from the wrong tier.
        from ..perf.predictor.train import load_artifact

        predictor, _payload = load_artifact()
        return predictor

    # -- pricing --------------------------------------------------------------

    def prefill_cycles(self, tokens: int) -> int:
        """Cycles to ingest ``tokens`` prompt tokens in one step.

        Token totals beyond ``max_context`` price as full-context chunks
        plus one bucketed remainder — the serving analogue of chunked
        prefill.
        """
        if tokens < 1:
            raise ConfigError(f"prefill of {tokens} tokens")
        cap = self.model.max_context
        full, rem = divmod(tokens, cap)
        cycles = full * self._priced("prefill", 1, cap)
        if rem:
            bucket = bucket_pow2(rem, self.MIN_TOKEN_BUCKET, cap)
            cycles += self._priced("prefill", 1, bucket)
        return cycles

    def decode_cycles(self, batch: int, max_context: int,
                      steps: int = 1) -> int:
        """Cycles for one token across a ``batch`` of decoding requests.

        ``steps`` is how many such steps to charge to the bucket's
        invocation count: the serving loop charges a run of identical
        decode steps in one call, and 0 prices without charging.
        """
        if batch < 1:
            raise ConfigError(f"decode batch of {batch}")
        if steps < 0:
            raise ConfigError(f"charging {steps} decode steps")
        b = bucket_pow2(batch, self.MIN_BATCH_BUCKET)
        return self._priced("decode", b, self._context_bucket(max_context),
                            steps)

    def decode_bucket_end(self, max_context: int) -> Optional[int]:
        """The longest context priced in the same decode bucket as
        ``max_context``, or ``None`` from the capped bucket on, which
        every longer context shares."""
        bucket = self._context_bucket(max_context)
        return None if bucket == self.model.max_context else bucket

    def _context_bucket(self, context: int) -> int:
        return bucket_pow2(max(1, context), self.MIN_TOKEN_BUCKET,
                           self.model.max_context)

    def _priced(self, phase: str, batch: int, tokens: int,
                steps: int = 1) -> int:
        key = (phase, batch, tokens)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._compile(phase, batch, tokens)
            self._memo[key] = hit
            self._counts[key] = 0
        self._counts[key] += steps
        return hit[0]

    def _compile(self, phase: str, batch: int,
                 tokens: int) -> Tuple[int, Optional[CompiledModel]]:
        if phase == "prefill":
            graph = build_gpt(self.model, batch=batch, seq=tokens,
                              dtype=self.dtype)
        else:
            graph = build_gpt_decode(self.model, batch=batch,
                                     context=tokens, dtype=self.dtype)
        if self._predictor is not None:
            from ..perf.predictor.features import model_feature_matrix

            features = model_feature_matrix(graph.grouped_workloads(),
                                            self.core)
            cycles = int(np.sum(self._predictor.predict(features)))
            return max(1, cycles), None
        compiled = self.engine.compile_graph(graph)
        return max(1, compiled.total_cycles), compiled

    # -- reporting ------------------------------------------------------------

    @property
    def distinct_buckets(self) -> int:
        return len(self._memo)

    def invocations(self) -> Dict[str, int]:
        """Bucket label -> use count (deterministically ordered)."""
        return {f"{p}_b{b}_t{t}": self._counts[(p, b, t)]
                for p, b, t in sorted(self._counts)}

    def aggregate_counters(
            self, since: Optional[Dict[str, int]] = None) -> PerfCounters:
        """Campaign-wide :class:`PerfCounters`: every priced step's
        compiled per-pipe busy cycles and traffic, scaled by how many
        times its bucket ran.  Predictor-priced buckets contribute only
        total cycles (nothing was scheduled to attribute).

        ``since`` is an earlier :meth:`invocations` snapshot; pass it to
        scope the aggregation to one campaign when the cost model (and
        its compiled buckets) are shared across several."""
        baseline = since or {}
        total = PerfCounters()
        for key in sorted(self._memo):
            cycles, compiled = self._memo[key]
            p, b, t = key
            count = self._counts[key] - baseline.get(f"{p}_b{b}_t{t}", 0)
            if count <= 0:
                continue
            if compiled is None:
                scaled = PerfCounters()
                scaled.total_cycles = cycles * count
                total.add(scaled)
                continue
            for layer in compiled.layers:
                total.add(PerfCounters.from_layer(SimpleNamespace(**{
                    field: getattr(layer, field) * count
                    for field in _LAYER_FIELDS
                })))
        return total
