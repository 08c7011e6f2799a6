"""Request-level LLM serving front-end over the Ascend simulator.

The serving layer turns the per-graph compile/simulate stack into a
*request-level* evaluation: a seeded open-loop traffic generator offers
mixed-length GPT requests from multiple tenants, a continuous-batching
scheduler admits them against the design point's modeled KV-cache
capacity (with per-tenant MPAM floors/ceilings), and every engine step
is priced by the compiled cost of the work actually batched into it.
Reports carry exact order-statistic latency percentiles, goodput, and
SLO attainment — byte-identical across repeated runs of a seed.
"""

from .kvcache import KvCapacity, KvLedger, qos_arbiter_for
from .metrics import exact_percentile, latency_summary
from .request import Request, RequestState
from .scheduler import MODES, ServeReport, ServeSpec, simulate_serving
from .settings import serve_max_batch, serve_predict
from .stepcost import StepCostModel, bucket_pow2
from .traffic import TenantSpec, generate_trace, tenant_key, tenant_trace

__all__ = [
    "KvCapacity", "KvLedger", "qos_arbiter_for",
    "exact_percentile", "latency_summary",
    "Request", "RequestState",
    "MODES", "ServeReport", "ServeSpec", "simulate_serving",
    "serve_max_batch", "serve_predict",
    "StepCostModel", "bucket_pow2",
    "TenantSpec", "generate_trace", "tenant_key", "tenant_trace",
]
