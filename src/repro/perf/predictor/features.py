"""Deterministic per-layer features for the cycle predictor.

:class:`LayerTable` is the one extractor: everything knowable **without
simulating** — workload structure
(:class:`~repro.graph.workload.OpWorkload`), Table 5 design-point
parameters, and cheap analytic per-resource cycle estimates (the
roofline hints the model refines) — for every (design point x layer)
pair at once.  The table is built once per model; this is what the fast
tier evaluates for thousands of candidate configurations.
:func:`candidate_feature_matrix` is one table used once and
:func:`model_feature_matrix` its batch of one design point.

Determinism is part of the contract: two identical runs produce
byte-identical feature matrices — pinned by
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
    "LayerTable",
    "feature_names",
    "model_feature_matrix",
    "config_feature_columns",
    "candidate_feature_matrix",
    "features_digest",
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
# candidates per generation against one fixed workload mix.  The
# design points are named float64 column arrays, and every
# config-dependent formula is vectorized across all candidates and
# layers at once.  Every row is byte-identical to the
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


_COL = {name: j for j, name in enumerate(_NAMES)}
# The workload-only columns: per-layer quantities that enter the
# feature row as ``log1p(quantity)``, then those that enter as they are.
_LOGGED = ("macs", "a_bytes", "b_bytes", "c_elems", "vec_elem_passes",
           "vec_bytes", "weight_bytes", "input_bytes", "output_bytes",
           "gemm_m_max", "gemm_k_max", "gemm_n_max",
           "gemm_m_min", "gemm_k_min", "gemm_n_min")
_LOGGED_COLS = [_COL["log_" + name] for name in _LOGGED]
_RAW_COLS = [_COL[name] for name in ("a_bytes_scale", "gemm_dtype_bytes",
                                     "n_gemms", "n_vector_works")]


class LayerTable:
    """The feature extractor: one model's layers, ready for any batch of
    design points.

    Built once per model from its ``(group, OpWorkload)`` pairs and
    im2col ``scales``, the table holds everything no design point
    changes: the workload-only feature columns, every GEMM's
    m/k/n/count (all layers' GEMMs in one flat array) and each layer's
    segment of that array.  :meth:`feature_matrix` then prices a batch
    of design points in one pass vectorized over configs x layers, so a
    search that scores many generations against one mix builds its
    tables once.
    """

    def __init__(self, pairs: Iterable[Tuple[str, OpWorkload]],
                 scales: Optional[Mapping[str, float]] = None) -> None:
        scales = scales or {}
        pairs = list(pairs)
        n_layers = self.n_layers = len(pairs)
        shapes: List[Tuple[int, int, int, int]] = []
        bounds: List[int] = [0]   # layer j: shapes[bounds[j]:bounds[j+1]]
        logged: List[Tuple[int, ...]] = []
        raw: List[Tuple[float, float, int, int]] = []
        mte2_bytes: List[float] = []
        for group, work in pairs:
            a_scale = float(scales.get(group, 1.0))
            macs = a_bytes = b_bytes = c_elems = 0
            dtype_bytes = 0.0
            dominant_macs = -1
            for gemm in work.gemms:
                shapes.append((gemm.m, gemm.k, gemm.n, gemm.count))
                macs += gemm.macs
                a_bytes += gemm.a_bytes
                b_bytes += gemm.b_bytes
                c_elems += gemm.c_elems
                if gemm.macs > dominant_macs:
                    dominant_macs = gemm.macs
                    dtype_bytes = float(gemm.dtype.bytes)
            extremes = (0,) * 6                  # log1p(0) == 0.0
            if work.gemms:
                dims = list(zip(*shapes[bounds[-1]:]))[:3]
                extremes = tuple(max(d) for d in dims) \
                    + tuple(min(d) for d in dims)
            bounds.append(len(shapes))
            logged.append((macs, a_bytes, b_bytes, c_elems,
                           sum(v.elem_passes for v in work.vector),
                           sum(v.bytes_processed for v in work.vector),
                           work.weight_bytes, work.input_bytes,
                           work.output_bytes) + extremes)
            raw.append((a_scale, dtype_bytes, len(work.gemms),
                        len(work.vector)))
            mte2_bytes.append(work.input_bytes * a_scale + work.weight_bytes)

        quantities = np.array(logged, dtype=np.float64).reshape(
            n_layers, len(_LOGGED))
        self._fixed = np.zeros((n_layers, len(_NAMES)), dtype=np.float64)
        self._fixed[:, _LOGGED_COLS] = np.log1p(quantities)
        self._fixed[:, _RAW_COLS] = np.array(raw, dtype=np.float64).reshape(
            n_layers, len(_RAW_COLS))
        # The operands of the per-resource estimates, one per layer.
        named = dict(zip(_LOGGED, quantities.T.copy()))
        self._macs = named["macs"]
        self._a_bytes = named["a_bytes"]
        self._b_bytes = named["b_bytes"]
        self._vec_passes = named["vec_elem_passes"]
        self._vec_bytes = named["vec_bytes"]
        self._out_bytes = named["output_bytes"]
        self._mte2_bytes = np.array(mte2_bytes, dtype=np.float64)

        gemms = np.array(shapes, dtype=np.int64).reshape(len(shapes), 4)
        self._m, self._k, self._n, self._count = gemms.T.copy()
        self._mkn = self._m * self._k * self._n
        self._starts = np.array(bounds[:-1], dtype=np.intp)
        self._ends = np.array(bounds[1:], dtype=np.intp)
        # Layers with GEMMs: their segments tile the GEMM array, so a
        # reduceat over their starts reduces exactly each one's GEMMs.
        self._gemm_layers = np.flatnonzero(self._ends > self._starts)

    def feature_matrix(self, config_columns: Dict[str, np.ndarray]
                       ) -> np.ndarray:
        """Feature rows of every (design point x layer) pair.

        ``config_columns`` is the :data:`CONFIG_COLUMN_NAMES` dict (from
        :func:`config_feature_columns` or a knob-grid generator).
        Returns a ``(n_configs * n_layers, n_features)`` float64 matrix
        laid out config-major: row ``i * n_layers + j`` is layer ``j`` on
        design point ``i``.  A pure function of the table and its
        argument: no simulator state, no caches, no randomness.
        """
        n_cfg = len(config_columns["frequency_hz"])
        n_layers = self.n_layers
        if n_cfg == 0 or n_layers == 0:
            return np.empty((n_cfg * n_layers, len(_NAMES)),
                            dtype=np.float64)
        log1p = np.log1p
        freq = config_columns["frequency_hz"]
        l1a_bpc = config_columns["l1_to_l0a_bw"] / freq
        l1b_bpc = config_columns["l1_to_l0b_bw"] / freq
        ub_bpc = config_columns["ub_bw"] / freq
        llc_raw = config_columns["llc_bw_per_core"] / freq
        # ``config.llc_bytes_per_cycle or _UNLIMITED_BPC``: both "no limit"
        # (NaN column) and a zero bandwidth fall through.
        llc_bpc = np.where(np.isnan(llc_raw) | (llc_raw == 0.0),
                           _UNLIMITED_BPC, llc_raw)
        per_config = {
            "freq_ghz": freq / 1e9,
            "log2_cube_m": np.log2(config_columns["cube_m"]),
            "log2_cube_k": np.log2(config_columns["cube_k"]),
            "log2_cube_n": np.log2(config_columns["cube_n"]),
            "log_vector_width": log1p(config_columns["vector_width_bytes"]),
            "log_l1a_bpc": log1p(l1a_bpc),
            "log_l1b_bpc": log1p(l1b_bpc),
            "log_ub_bpc": log1p(ub_bpc),
            "log_llc_bpc": log1p(llc_bpc),
            "log_l1_bytes": log1p(config_columns["l1_bytes"]),
            "log_l0a_bytes": log1p(config_columns["l0a_bytes"]),
            "log_ub_bytes": log1p(config_columns["ub_bytes"]),
            "duplex_ub_vector": config_columns["duplex_ub_vector"],
        }

        # Configs down the rows, GEMMs (or layers) across the columns.
        cmi = config_columns["cube_m"].astype(np.int64)[:, None]
        cki = config_columns["cube_k"].astype(np.int64)[:, None]
        cni = config_columns["cube_n"].astype(np.int64)[:, None]
        tm = -((-self._m) // cmi)
        tk = -((-self._k) // cki)
        tn = -((-self._n) // cni)
        # Exact int64 tile counts per layer: differences of a running
        # sum, so a layer without GEMMs counts 0.
        running = np.zeros((n_cfg, len(self._m) + 1), dtype=np.int64)
        np.cumsum(tm * tk * tn * self._count, axis=1, out=running[:, 1:])
        tiles = running[:, self._ends] - running[:, self._starts]
        density = self._mkn / ((tm * cmi) * (tk * cki) * (tn * cni))
        dens_min = np.zeros((n_cfg, n_layers), dtype=np.float64)
        dens_max = np.zeros((n_cfg, n_layers), dtype=np.float64)
        if len(self._gemm_layers):
            segments = self._starts[self._gemm_layers]
            dens_min[:, self._gemm_layers] = np.minimum.reduceat(
                density, segments, axis=1)
            dens_max[:, self._gemm_layers] = np.maximum.reduceat(
                density, segments, axis=1)

        est_cube = tiles.astype(np.float64)
        est_vector = self._vec_passes / np.maximum(
            1.0, config_columns["vector_width_bytes"] / 2)[:, None]
        est_mte2 = self._mte2_bytes / llc_bpc[:, None]
        est_l1a = self._a_bytes / l1a_bpc[:, None]
        est_l1b = self._b_bytes / l1b_bpc[:, None]
        est_mte3 = self._out_bytes / llc_bpc[:, None]
        est_ub = self._vec_bytes / ub_bpc[:, None]
        ests = np.sort(np.stack([est_cube, est_vector, est_mte2, est_l1a,
                                 est_l1b, est_mte3, est_ub], axis=2), axis=2)
        est_max = ests[:, :, -1]
        est_second = ests[:, :, -2]
        # In-order left fold over the sorted estimates — exactly what
        # ``sum(sorted_list)`` does; a blocked numpy reduction could
        # round differently.
        est_sum = ests[:, :, 0].copy()
        for e in range(1, ests.shape[2]):
            est_sum += ests[:, :, e]
        with np.errstate(divide="ignore", invalid="ignore"):
            balance = np.where(est_max != 0.0, est_second / est_max, 0.0)
            dominance = np.where(est_sum != 0.0, est_max / est_sum, 0.0)
        mpc = cmi * cki * cni
        mac_util = self._macs / np.maximum(
            1.0, (tiles * mpc).astype(np.float64))
        log_cube = log1p(est_cube)
        per_pair = {
            "log_cube_tiles": log_cube,
            "log_est_max": log1p(est_max),
            "log_est_second": log1p(est_second),
            "log_est_sum": log1p(est_sum),
            "log_est_cube": log_cube,
            "log_est_vector": log1p(est_vector),
            "log_est_mte2": log1p(est_mte2),
            "log_est_l1a": log1p(est_l1a),
            "log_est_l1b": log1p(est_l1b),
            "log_est_mte3": log1p(est_mte3),
            "log_est_ub": log1p(est_ub),
            "est_balance": balance,
            "est_dominance": dominance,
            "mac_utilization": mac_util,
            "tile_density_min": dens_min,
            "tile_density_max": dens_max,
        }

        out = np.empty((n_cfg, n_layers, len(_NAMES)), dtype=np.float64)
        out[:] = self._fixed
        for name, values in per_config.items():
            out[:, :, _COL[name]] = values[:, None]
        for name, values in per_pair.items():
            out[:, :, _COL[name]] = values
        return out.reshape(n_cfg * n_layers, len(_NAMES))


def candidate_feature_matrix(pairs: Sequence[Tuple[str, OpWorkload]],
                             config_columns: Dict[str, np.ndarray],
                             scales: Optional[Mapping[str, float]] = None
                             ) -> np.ndarray:
    """Feature matrix for every (design point x layer) pair: a
    :class:`LayerTable` of ``pairs``, used once."""
    return LayerTable(pairs, scales).feature_matrix(config_columns)


def model_feature_matrix(pairs: Iterable[Tuple[str, OpWorkload]],
                         config: CoreConfig,
                         scales: Optional[Mapping[str, float]] = None
                         ) -> np.ndarray:
    """Feature rows for a model's grouped workloads on one design point
    (a :class:`LayerTable` batch of one)."""
    return LayerTable(pairs, scales).feature_matrix(
        config_feature_columns([config]))


def features_digest(matrix: np.ndarray) -> str:
    """Content hash of a feature matrix (schema + shape + raw bytes)."""
    digest = hashlib.sha256()
    digest.update(f"v{FEATURE_SCHEMA_VERSION}:{matrix.shape}".encode())
    digest.update(np.ascontiguousarray(matrix, dtype=np.float64).tobytes())
    return digest.hexdigest()

