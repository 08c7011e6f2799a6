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

Each priced bucket is stored as one ``bucket-<sha256>.json`` entry,
its only persistent entry, keyed by what the graph builder takes plus
the design point (:func:`repro.compiler.cache.bucket_key`): a later
cost model for the same design point reads its layers back without
building or hashing the graph.  A miss compiles the graph's layer
groups as one batch through the in-memory layer tier
(:meth:`~repro.compiler.graph_engine.GraphEngine.compile_layers`: its
missed layers are drained together, as a model compile's are); GPT
graphs have no convolutions, so no group has an im2col scale.  The
tier follows the stats tiers' bypasses (``REPRO_CACHE=0`` and
stall/sync fault campaigns) and is not used under the predictor.

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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..compiler import cache
from ..compiler.graph_engine import GraphEngine
from ..config.core_configs import CoreConfig
from ..dtypes import DType, FP16
from ..errors import ConfigError
from ..graph import Graph
from ..models.gpt import GptConfig, build_gpt, build_gpt_decode
from ..profiling.counters import PerfCounters
from .settings import serve_predict

__all__ = ["StepCostModel", "bucket_pow2"]

# One priced bucket: its cycles and, from the event engine, each layer's
# name and cache.LAYER_FIELDS (None under the predictor).
_Priced = Tuple[int, Optional[List[Dict[str, Any]]]]


class _Bucket:
    """A priced bucket and how many steps have been charged to it.

    ``sums`` holds each :data:`cache.LAYER_FIELDS` field summed over the
    bucket's layers and ``layers`` their number, or ``None`` and 0 for
    a predictor-priced bucket, which has no layers to attribute.
    """

    __slots__ = ("cycles", "sums", "layers", "count")

    def __init__(self, priced: _Priced) -> None:
        self.cycles, rows = priced
        self.sums = None if rows is None else tuple(
            sum(row[field] for row in rows) for field in cache.LAYER_FIELDS)
        self.layers = 0 if rows is None else len(rows)
        self.count = 0


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

    # The token floor trades accuracy for compile count: every context
    # and prompt below 16 tokens prices at 16, which overcharges short
    # ones.  gpt-tiny on ascend-mini prefills 3 tokens in 80,186 cycles
    # and 16 in 99,258, so a 3-token prompt is charged 24% too much.
    # Pricing each step at its own shape is an open item (ROADMAP.md,
    # "Serving step costs priced at the shape each step runs").
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
        self._key_prefix = (None if self.use_predictor
                            else cache.bucket_key_prefix(model, core, dtype))
        self._memo: Dict[Tuple[str, int, int], _Bucket] = {}
        # (batch, max_context) as the serving loop asks -> its bucket.
        self._decode_memo: Dict[Tuple[int, int], _Bucket] = {}

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
        prefill.  Each chunk charges one invocation of its bucket.
        """
        if tokens < 1:
            raise ConfigError(f"prefill of {tokens} tokens")
        cap = self.model.max_context
        full, rem = divmod(tokens, cap)
        cycles = 0
        if full:
            cycles = full * self._priced("prefill", 1, cap, steps=full)
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
        if steps < 0:
            raise ConfigError(f"charging {steps} decode steps")
        # The serving loop's hottest call: one lookup once the pair has
        # been asked for.
        bucket = self._decode_memo.get((batch, max_context))
        if bucket is None:
            if batch < 1:
                raise ConfigError(f"decode batch of {batch}")
            bucket = self._decode_memo[batch, max_context] = self._bucket(
                "decode", bucket_pow2(batch, self.MIN_BATCH_BUCKET),
                self._context_bucket(max_context))
        bucket.count += steps
        return bucket.cycles

    def decode_bucket_end(self, max_context: int) -> Optional[int]:
        """The longest context priced in the same decode bucket as
        ``max_context``, or ``None`` from the capped bucket on, which
        every longer context shares."""
        bucket = self._context_bucket(max_context)
        return None if bucket == self.model.max_context else bucket

    def _context_bucket(self, context: int) -> int:
        # bucket_pow2(max(1, context), MIN_TOKEN_BUCKET, max_context)
        bucket = 1 << (context - 1).bit_length() if context > 1 else 1
        return min(max(self.MIN_TOKEN_BUCKET, bucket),
                   self.model.max_context)

    def _priced(self, phase: str, batch: int, tokens: int,
                steps: int = 1) -> int:
        bucket = self._bucket(phase, batch, tokens)
        bucket.count += steps
        return bucket.cycles

    def _bucket(self, phase: str, batch: int, tokens: int) -> _Bucket:
        bucket = self._memo.get((phase, batch, tokens))
        if bucket is None:
            bucket = self._memo[phase, batch, tokens] = _Bucket(
                self._compile(phase, batch, tokens))
        return bucket

    def _graph(self, phase: str, batch: int, tokens: int) -> Graph:
        if phase == "prefill":
            return build_gpt(self.model, batch=batch, seq=tokens,
                             dtype=self.dtype)
        return build_gpt_decode(self.model, batch=batch, context=tokens,
                                dtype=self.dtype)

    def _compile(self, phase: str, batch: int, tokens: int) -> _Priced:
        if self._predictor is not None:
            from ..perf.predictor.features import model_feature_matrix

            graph = self._graph(phase, batch, tokens)
            features = model_feature_matrix(graph.grouped_workloads(),
                                            self.core)
            cycles = int(np.sum(self._predictor.predict(features)))
            return max(1, cycles), None
        # Bypassed in both directions whenever the stats tiers are
        # (load and store are no-ops under REPRO_CACHE=0).
        key = None
        if not cache.timing_stats_bypassed():
            key = cache.bucket_key(self._key_prefix, phase, batch, tokens)
            entry = cache.load_bucket(key)
            if entry is not None:
                return entry["cycles"], entry["layers"]
        layers = self.engine.compile_layers(
            self._graph(phase, batch, tokens).grouped_workloads())
        cycles = max(1, sum(layer.cycles for layer in layers))
        rows = [{"name": layer.name,
                 **{field: getattr(layer, field)
                    for field in cache.LAYER_FIELDS}}
                for layer in layers]
        if key is not None:
            cache.store_bucket(key, {"cycles": cycles, "layers": rows})
        return cycles, rows

    # -- reporting ------------------------------------------------------------

    @property
    def distinct_buckets(self) -> int:
        return len(self._memo)

    def invocations(self) -> Dict[str, int]:
        """Bucket label -> use count (deterministically ordered)."""
        return {f"{p}_b{b}_t{t}": self._memo[p, b, t].count
                for p, b, t in sorted(self._memo)}

    def aggregate_counters(
            self, since: Optional[Dict[str, int]] = None) -> PerfCounters:
        """Campaign-wide :class:`PerfCounters`: every priced step's
        compiled per-pipe busy cycles and traffic, scaled by how many
        times its bucket ran.  A charged bucket adds one
        :class:`PerfCounters`, its layers' field sums times that count,
        with its layer count as ``layers``: what adding each scaled
        layer would give.  Predictor-priced buckets contribute only
        total cycles (nothing was scheduled to attribute).

        ``since`` is an earlier :meth:`invocations` snapshot; pass it to
        scope the aggregation to one campaign when the cost model (and
        its compiled buckets) are shared across several."""
        baseline = since or {}
        total = PerfCounters()
        for (p, b, t), bucket in self._memo.items():
            count = bucket.count - baseline.get(f"{p}_b{b}_t{t}", 0)
            if count <= 0:
                continue
            if bucket.sums is None:
                scaled = PerfCounters()
                scaled.total_cycles = bucket.cycles * count
            else:
                scaled = PerfCounters.from_layer(SimpleNamespace(**{
                    field: value * count for field, value
                    in zip(cache.LAYER_FIELDS, bucket.sums)}))
                scaled.layers = bucket.layers
            total.add(scaled)
        return total
