"""Deterministic per-layer features for the cycle predictor.

Two extractors live here:

* :func:`candidate_feature_matrix` — the *predictive* feature rows:
  everything knowable **without simulating** — workload structure
  (:class:`~repro.graph.workload.OpWorkload`), Table 5 design-point
  parameters, and cheap analytic per-resource cycle estimates (the
  roofline hints the model refines) — for every (design point x layer)
  pair at once.  This is what the fast tier evaluates for thousands of
  candidate configurations; :func:`model_feature_matrix` is its batch
  of one design point.
* :func:`counters_feature_columns` — the *observed* columns of a
  :class:`~repro.profiling.counters.PerfCounters` registry (instruction
  mix, route matrix, flag-wait histograms) for training-set diagnostics
  and feature-matrix exports.

Determinism is part of the contract: every dict-shaped counter table
(kinds, routes, interned flag channels) is **sorted by key before
export**, so two identical runs produce byte-identical feature matrices
regardless of dict insertion order — pinned by
``tests/perf/test_predictor_features.py`` and relied on by the
content-addressed artifact keys.

``FEATURE_SCHEMA_VERSION`` is baked into artifacts and digests: bump it
whenever the name list, ordering, or any formula changes, so stale
models are a clean mismatch instead of silently misread columns.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...config.core_configs import CoreConfig
from ...graph.workload import OpWorkload

__all__ = [
    "FEATURE_SCHEMA_VERSION",
    "CONFIG_COLUMN_NAMES",
    "feature_names",
    "model_feature_matrix",
    "config_feature_columns",
    "candidate_feature_matrix",
    "features_digest",
    "counters_feature_columns",
    "counters_feature_matrix",
]

# Bump on any change to the name list, ordering, or a feature formula.
FEATURE_SCHEMA_VERSION = 1

# Sentinel bytes/cycle for cores with no fabric limit (Table 5 "N/A"):
# large enough that the estimate is ~0 cycles and the log feature
# saturates, small enough to stay finite.
_UNLIMITED_BPC = 1e9

_NAMES: Tuple[str, ...] = (
    # Workload structure (log1p domain).
    "log_macs",
    "log_cube_tiles",
    "log_a_bytes",
    "log_b_bytes",
    "log_c_elems",
    "log_vec_elem_passes",
    "log_vec_bytes",
    "log_weight_bytes",
    "log_input_bytes",
    "log_output_bytes",
    # Analytic per-resource cycle estimates (log1p domain).
    "log_est_max",
    "log_est_second",
    "log_est_sum",
    "log_est_cube",
    "log_est_vector",
    "log_est_mte2",
    "log_est_l1a",
    "log_est_l1b",
    "log_est_mte3",
    "log_est_ub",
    # Balance / utilization ratios (unitless).
    "est_balance",        # second-busiest / busiest resource estimate
    "est_dominance",      # busiest / sum of estimates
    "mac_utilization",    # MACs / (tiles * cube MACs-per-cycle)
    "tile_density_min",   # worst per-GEMM padding density
    "tile_density_max",
    "a_bytes_scale",
    # Dominant-GEMM shape (log1p domain; zeros for pure-vector layers).
    "log_gemm_m_max",
    "log_gemm_k_max",
    "log_gemm_n_max",
    "log_gemm_m_min",
    "log_gemm_k_min",
    "log_gemm_n_min",
    "gemm_dtype_bytes",
    # Design-point parameters (Table 5 fields).
    "freq_ghz",
    "log2_cube_m",
    "log2_cube_k",
    "log2_cube_n",
    "log_vector_width",
    "log_l1a_bpc",
    "log_l1b_bpc",
    "log_ub_bpc",
    "log_llc_bpc",
    "log_l1_bytes",
    "log_l0a_bytes",
    "log_ub_bytes",
    "duplex_ub_vector",
    # Structure counts.
    "n_gemms",
    "n_vector_works",
)


def feature_names() -> Tuple[str, ...]:
    """The stable, ordered feature-name tuple (schema-versioned)."""
    return _NAMES


# -- batched candidate extraction ---------------------------------------------
#
# The DSE hot loop evaluates thousands of (workload, design point)
# candidates per generation.  The design points are named float64
# column arrays, and every config-dependent formula is vectorized
# across all candidates at once.  Every row is byte-identical to the
# per-config scalar extractor in ``tests/perf/features_oracle.py``
# (``tests/perf/test_batch_features.py``).  Candidate generators that know
# their knob grid (``repro.dse.space``) can build the columns directly
# without ever instantiating a ``CoreConfig``.

# The design-point fields the feature schema reads, as column names.
# ``llc_bw_per_core`` uses NaN for "no fabric limit" (Table 5 N/A).
CONFIG_COLUMN_NAMES: Tuple[str, ...] = (
    "frequency_hz",
    "cube_m",
    "cube_k",
    "cube_n",
    "vector_width_bytes",
    "l1_to_l0a_bw",
    "l1_to_l0b_bw",
    "ub_bw",
    "llc_bw_per_core",
    "l1_bytes",
    "l0a_bytes",
    "ub_bytes",
    "duplex_ub_vector",
)


def config_feature_columns(configs: Sequence[CoreConfig]
                           ) -> Dict[str, np.ndarray]:
    """Columnize design points: one float64 array per schema field."""
    cols = {name: np.empty(len(configs), dtype=np.float64)
            for name in CONFIG_COLUMN_NAMES}
    for i, config in enumerate(configs):
        cols["frequency_hz"][i] = config.frequency_hz
        cols["cube_m"][i] = config.cube.m
        cols["cube_k"][i] = config.cube.k
        cols["cube_n"][i] = config.cube.n
        cols["vector_width_bytes"][i] = config.vector_width_bytes
        cols["l1_to_l0a_bw"][i] = config.l1_to_l0a_bw
        cols["l1_to_l0b_bw"][i] = config.l1_to_l0b_bw
        cols["ub_bw"][i] = config.ub_bw
        cols["llc_bw_per_core"][i] = (np.nan if config.llc_bw_per_core is None
                                      else config.llc_bw_per_core)
        cols["l1_bytes"][i] = config.l1_bytes
        cols["l0a_bytes"][i] = config.l0a_bytes
        cols["ub_bytes"][i] = config.ub_bytes
        cols["duplex_ub_vector"][i] = float(config.duplex_ub_vector)
    return cols


def candidate_feature_matrix(pairs: Sequence[Tuple[str, OpWorkload]],
                             config_columns: Dict[str, np.ndarray],
                             scales: Optional[Mapping[str, float]] = None
                             ) -> np.ndarray:
    """Feature matrix for every (design point x layer) pair, vectorized.

    ``config_columns`` is the :data:`CONFIG_COLUMN_NAMES` dict (from
    :func:`config_feature_columns` or a knob-grid generator).  Returns a
    ``(n_configs * n_layers, n_features)`` float64 matrix laid out
    config-major: row ``i * n_layers + j`` is layer ``j`` on design
    point ``i``.  A pure function of its arguments — no simulator
    state, no caches, no randomness.
    """
    scales = scales or {}
    n_cfg = len(config_columns["frequency_hz"])
    n_layers = len(pairs)
    out = np.empty((n_cfg, n_layers, len(_NAMES)), dtype=np.float64)
    if n_cfg == 0 or n_layers == 0:
        return out.reshape(n_cfg * n_layers, len(_NAMES))

    freq = config_columns["frequency_hz"]
    cmi = config_columns["cube_m"].astype(np.int64)
    cki = config_columns["cube_k"].astype(np.int64)
    cni = config_columns["cube_n"].astype(np.int64)
    mpc = cmi * cki * cni
    vw = config_columns["vector_width_bytes"]
    l1a_bpc = config_columns["l1_to_l0a_bw"] / freq
    l1b_bpc = config_columns["l1_to_l0b_bw"] / freq
    ub_bpc = config_columns["ub_bw"] / freq
    llc_raw = config_columns["llc_bw_per_core"] / freq
    # ``config.llc_bytes_per_cycle or _UNLIMITED_BPC``: both "no limit"
    # (NaN column) and a zero bandwidth fall through.
    llc_bpc = np.where(np.isnan(llc_raw) | (llc_raw == 0.0),
                       _UNLIMITED_BPC, llc_raw)

    # Config-only feature columns, shared by every layer row.
    log1p = np.log1p
    freq_ghz = freq / 1e9
    cfg_block = {
        "freq_ghz": freq_ghz,
        "log2_cube_m": np.log2(config_columns["cube_m"]),
        "log2_cube_k": np.log2(config_columns["cube_k"]),
        "log2_cube_n": np.log2(config_columns["cube_n"]),
        "log_vector_width": log1p(vw),
        "log_l1a_bpc": log1p(l1a_bpc),
        "log_l1b_bpc": log1p(l1b_bpc),
        "log_ub_bpc": log1p(ub_bpc),
        "log_llc_bpc": log1p(llc_bpc),
        "log_l1_bytes": log1p(config_columns["l1_bytes"]),
        "log_l0a_bytes": log1p(config_columns["l0a_bytes"]),
        "log_ub_bytes": log1p(config_columns["ub_bytes"]),
        "duplex_ub_vector": config_columns["duplex_ub_vector"],
    }

    col = {name: j for j, name in enumerate(_NAMES)}
    for j, (group, work) in enumerate(pairs):
        a_scale = float(scales.get(group, 1.0))
        block = out[:, j, :]

        macs = 0
        a_bytes = b_bytes = c_elems = 0
        m_shapes: List[int] = []
        k_shapes: List[int] = []
        n_shapes: List[int] = []
        dtype_bytes = 0.0
        dominant_macs = -1
        tiles = np.zeros(n_cfg, dtype=np.int64)
        densities: List[np.ndarray] = []
        for gemm in work.gemms:
            tm = -((-gemm.m) // cmi)
            tk = -((-gemm.k) // cki)
            tn = -((-gemm.n) // cni)
            tiles += tm * tk * tn * gemm.count
            macs += gemm.macs
            a_bytes += gemm.a_bytes
            b_bytes += gemm.b_bytes
            c_elems += gemm.c_elems
            m_shapes.append(gemm.m)
            k_shapes.append(gemm.k)
            n_shapes.append(gemm.n)
            padded = (tm * cmi) * (tk * cki) * (tn * cni)
            densities.append((gemm.m * gemm.k * gemm.n) / padded)
            if gemm.macs > dominant_macs:
                dominant_macs = gemm.macs
                dtype_bytes = float(gemm.dtype.bytes)

        vec_passes = sum(v.elem_passes for v in work.vector)
        vec_bytes = sum(v.bytes_processed for v in work.vector)

        est_cube = tiles.astype(np.float64)
        est_vector = vec_passes / np.maximum(1.0, vw / 2)
        est_mte2 = (work.input_bytes * a_scale + work.weight_bytes) / llc_bpc
        est_l1a = a_bytes / l1a_bpc
        est_l1b = b_bytes / l1b_bpc
        est_mte3 = work.output_bytes / llc_bpc
        est_ub = vec_bytes / ub_bpc
        ests = np.sort(np.stack([est_cube, est_vector, est_mte2, est_l1a,
                                 est_l1b, est_mte3, est_ub], axis=1), axis=1)
        est_max = ests[:, -1]
        est_second = ests[:, -2]
        # In-order left fold over the sorted estimates — exactly what
        # ``sum(sorted_list)`` does; a blocked numpy reduction could
        # round differently.
        est_sum = ests[:, 0].copy()
        for e in range(1, ests.shape[1]):
            est_sum += ests[:, e]

        with np.errstate(divide="ignore", invalid="ignore"):
            balance = np.where(est_max != 0.0, est_second / est_max, 0.0)
            dominance = np.where(est_sum != 0.0, est_max / est_sum, 0.0)
        mac_util = macs / np.maximum(1.0, (tiles * mpc).astype(np.float64))
        if densities:
            dens = np.stack(densities, axis=1)
            dens_min = np.minimum.reduce(dens, axis=1)
            dens_max = np.maximum.reduce(dens, axis=1)
        else:
            dens_min = dens_max = np.zeros(n_cfg, dtype=np.float64)

        # Workload-only scalars, broadcast across configs.
        block[:, col["log_macs"]] = np.log1p(macs)
        block[:, col["log_a_bytes"]] = np.log1p(a_bytes)
        block[:, col["log_b_bytes"]] = np.log1p(b_bytes)
        block[:, col["log_c_elems"]] = np.log1p(c_elems)
        block[:, col["log_vec_elem_passes"]] = np.log1p(vec_passes)
        block[:, col["log_vec_bytes"]] = np.log1p(vec_bytes)
        block[:, col["log_weight_bytes"]] = np.log1p(work.weight_bytes)
        block[:, col["log_input_bytes"]] = np.log1p(work.input_bytes)
        block[:, col["log_output_bytes"]] = np.log1p(work.output_bytes)
        block[:, col["a_bytes_scale"]] = a_scale
        block[:, col["log_gemm_m_max"]] = (np.log1p(max(m_shapes))
                                           if m_shapes else 0.0)
        block[:, col["log_gemm_k_max"]] = (np.log1p(max(k_shapes))
                                           if k_shapes else 0.0)
        block[:, col["log_gemm_n_max"]] = (np.log1p(max(n_shapes))
                                           if n_shapes else 0.0)
        block[:, col["log_gemm_m_min"]] = (np.log1p(min(m_shapes))
                                           if m_shapes else 0.0)
        block[:, col["log_gemm_k_min"]] = (np.log1p(min(k_shapes))
                                           if k_shapes else 0.0)
        block[:, col["log_gemm_n_min"]] = (np.log1p(min(n_shapes))
                                           if n_shapes else 0.0)
        block[:, col["gemm_dtype_bytes"]] = dtype_bytes
        block[:, col["n_gemms"]] = float(len(work.gemms))
        block[:, col["n_vector_works"]] = float(len(work.vector))

        # Config-dependent columns, vectorized across all candidates.
        block[:, col["log_cube_tiles"]] = log1p(est_cube)
        block[:, col["log_est_max"]] = log1p(est_max)
        block[:, col["log_est_second"]] = log1p(est_second)
        block[:, col["log_est_sum"]] = log1p(est_sum)
        block[:, col["log_est_cube"]] = log1p(est_cube)
        block[:, col["log_est_vector"]] = log1p(est_vector)
        block[:, col["log_est_mte2"]] = log1p(est_mte2)
        block[:, col["log_est_l1a"]] = log1p(est_l1a)
        block[:, col["log_est_l1b"]] = log1p(est_l1b)
        block[:, col["log_est_mte3"]] = log1p(est_mte3)
        block[:, col["log_est_ub"]] = log1p(est_ub)
        block[:, col["est_balance"]] = balance
        block[:, col["est_dominance"]] = dominance
        block[:, col["mac_utilization"]] = mac_util
        block[:, col["tile_density_min"]] = dens_min
        block[:, col["tile_density_max"]] = dens_max
        for name, values in cfg_block.items():
            block[:, col[name]] = values

    return out.reshape(n_cfg * n_layers, len(_NAMES))


def model_feature_matrix(pairs: Iterable[Tuple[str, OpWorkload]],
                         config: CoreConfig,
                         scales: Optional[Mapping[str, float]] = None
                         ) -> np.ndarray:
    """Feature rows for a model's grouped workloads on one design point
    (a :func:`candidate_feature_matrix` batch of one)."""
    return candidate_feature_matrix(list(pairs),
                                    config_feature_columns([config]), scales)


def features_digest(matrix: np.ndarray) -> str:
    """Content hash of a feature matrix (schema + shape + raw bytes)."""
    digest = hashlib.sha256()
    digest.update(f"v{FEATURE_SCHEMA_VERSION}:{matrix.shape}".encode())
    digest.update(np.ascontiguousarray(matrix, dtype=np.float64).tobytes())
    return digest.hexdigest()


# -- observed-counter columns -------------------------------------------------

def counters_feature_columns(counters) -> "Dict[str, float]":
    """Flatten a :class:`PerfCounters` into named numeric columns.

    Every dict-shaped table — instruction kinds, the route matrix, the
    interned flag-channel histograms — is sorted by key before export,
    so column order depends only on *content*, never on the insertion
    order of merges.  The returned dict preserves that deterministic
    order (plain dicts are insertion-ordered).
    """
    from ...isa.pipes import Pipe

    cols: Dict[str, float] = {}
    for name in ("total_cycles", "events", "l1_read_bytes",
                 "l1_write_bytes", "gm_read_bytes", "gm_write_bytes",
                 "ub_read_bytes", "ub_write_bytes", "traces", "layers"):
        cols[name] = float(getattr(counters, name))
    cols["stall_cycles"] = float(counters.stall_cycles)
    for pipe in Pipe:
        cols[f"busy[{pipe.name}]"] = float(counters.busy_by_pipe[int(pipe)])
    for pipe in Pipe:
        cols[f"wait[{pipe.name}]"] = float(counters.wait_by_pipe[int(pipe)])
    for kind in sorted(counters.kind_events):
        cols[f"kind[{kind}]"] = float(counters.kind_events[kind])
    for route in sorted(counters.route_bytes):
        cols[f"route[{route}]"] = float(counters.route_bytes[route])
    for channel in sorted(counters.flag_waits):
        waits, stalled = counters.flag_waits[channel]
        cols[f"waits[{channel}]"] = float(waits)
        cols[f"stalled[{channel}]"] = float(stalled)
    return cols


def counters_feature_matrix(samples: Iterable) -> Tuple[List[str], np.ndarray]:
    """Align many counters into one (names, matrix) pair.

    The column set is the sorted union of every sample's columns;
    samples missing a column get 0.0 there.  Deterministic for the same
    multiset of counters regardless of iteration interleaving.
    """
    flats = [counters_feature_columns(c) for c in samples]
    names = sorted(set().union(*flats)) if flats else []
    matrix = np.zeros((len(flats), len(names)), dtype=np.float64)
    for i, flat in enumerate(flats):
        for j, name in enumerate(names):
            if name in flat:
                matrix[i, j] = flat[name]
    return names, matrix
