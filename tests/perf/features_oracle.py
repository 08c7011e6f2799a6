"""The scalar feature extractor: the oracle the batched one is checked against.

:func:`layer_features` is the per-(workload, design point) extractor
:mod:`repro.perf.predictor.features` ran before
``candidate_feature_matrix`` became its only production path, copied
verbatim: one python pass over the workload's GEMMs and vector works
per design point, reading the ``CoreConfig`` fields directly.
:func:`oracle_matrix` stacks its rows config-major, the layout
``candidate_feature_matrix`` returns.  ``tests/perf/test_batch_features.py``
asserts the two agree byte for byte.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config.core_configs import CoreConfig
from repro.graph.workload import OpWorkload
from repro.perf.predictor.features import _NAMES, _UNLIMITED_BPC


def layer_features(work: OpWorkload, config: CoreConfig,
                   a_bytes_scale: float = 1.0) -> np.ndarray:
    """One float64 feature row for (workload, design point).

    Pure function of its arguments — no simulator state, no caches, no
    randomness — so identical inputs produce byte-identical rows.
    """
    cube = config.cube
    tiles = 0
    macs = 0
    a_bytes = b_bytes = c_elems = 0
    m_shapes: List[int] = []
    k_shapes: List[int] = []
    n_shapes: List[int] = []
    densities: List[float] = []
    dtype_bytes = 0.0
    dominant_macs = -1
    for gemm in work.gemms:
        tm = -(-gemm.m // cube.m)
        tk = -(-gemm.k // cube.k)
        tn = -(-gemm.n // cube.n)
        tiles += tm * tk * tn * gemm.count
        macs += gemm.macs
        a_bytes += gemm.a_bytes
        b_bytes += gemm.b_bytes
        c_elems += gemm.c_elems
        m_shapes.append(gemm.m)
        k_shapes.append(gemm.k)
        n_shapes.append(gemm.n)
        padded = (tm * cube.m) * (tk * cube.k) * (tn * cube.n)
        densities.append(gemm.m * gemm.k * gemm.n / padded)
        if gemm.macs > dominant_macs:
            dominant_macs = gemm.macs
            dtype_bytes = float(gemm.dtype.bytes)

    vec_passes = sum(v.elem_passes for v in work.vector)
    vec_bytes = sum(v.bytes_processed for v in work.vector)

    l1a_bpc = config.l1_to_l0a_bytes_per_cycle
    l1b_bpc = config.l1_to_l0b_bytes_per_cycle
    ub_bpc = config.ub_bytes_per_cycle
    llc_bpc = config.llc_bytes_per_cycle or _UNLIMITED_BPC

    # Analytic per-resource occupancy estimates, in cycles: the roofline
    # bounds the learned model starts from and corrects.
    est_cube = float(tiles)
    est_vector = vec_passes / max(1.0, config.vector_width_bytes / 2)
    est_mte2 = (work.input_bytes * a_bytes_scale + work.weight_bytes) / llc_bpc
    est_l1a = a_bytes / l1a_bpc
    est_l1b = b_bytes / l1b_bpc
    est_mte3 = work.output_bytes / llc_bpc
    est_ub = vec_bytes / ub_bpc
    ests = sorted((est_cube, est_vector, est_mte2, est_l1a, est_l1b,
                   est_mte3, est_ub))
    est_max, est_second = ests[-1], ests[-2]
    est_sum = sum(ests)

    # numpy's log1p/log2, not math's: the two differ by 1 ulp on ~1% of
    # inputs, and the batched extractor must reproduce these rows bit
    # for bit without per-config python.
    log1p = np.log1p
    row = [
        log1p(macs),
        log1p(tiles),
        log1p(a_bytes),
        log1p(b_bytes),
        log1p(c_elems),
        log1p(vec_passes),
        log1p(vec_bytes),
        log1p(work.weight_bytes),
        log1p(work.input_bytes),
        log1p(work.output_bytes),
        log1p(est_max),
        log1p(est_second),
        log1p(est_sum),
        log1p(est_cube),
        log1p(est_vector),
        log1p(est_mte2),
        log1p(est_l1a),
        log1p(est_l1b),
        log1p(est_mte3),
        log1p(est_ub),
        est_second / est_max if est_max else 0.0,
        est_max / est_sum if est_sum else 0.0,
        macs / max(1.0, tiles * cube.macs_per_cycle),
        min(densities) if densities else 0.0,
        max(densities) if densities else 0.0,
        float(a_bytes_scale),
        log1p(max(m_shapes)) if m_shapes else 0.0,
        log1p(max(k_shapes)) if k_shapes else 0.0,
        log1p(max(n_shapes)) if n_shapes else 0.0,
        log1p(min(m_shapes)) if m_shapes else 0.0,
        log1p(min(k_shapes)) if k_shapes else 0.0,
        log1p(min(n_shapes)) if n_shapes else 0.0,
        dtype_bytes,
        config.frequency_hz / 1e9,
        np.log2(float(cube.m)),
        np.log2(float(cube.k)),
        np.log2(float(cube.n)),
        log1p(config.vector_width_bytes),
        log1p(l1a_bpc),
        log1p(l1b_bpc),
        log1p(ub_bpc),
        log1p(llc_bpc),
        log1p(config.l1_bytes),
        log1p(config.l0a_bytes),
        log1p(config.ub_bytes),
        float(config.duplex_ub_vector),
        float(len(work.gemms)),
        float(len(work.vector)),
    ]
    assert len(row) == len(_NAMES)
    return np.asarray(row, dtype=np.float64)


def oracle_matrix(pairs: Sequence[Tuple[str, OpWorkload]],
                  configs: Sequence[CoreConfig],
                  scales: Optional[Mapping[str, float]] = None
                  ) -> np.ndarray:
    """:func:`layer_features` of every (design point x layer) pair,
    config-major, as a ``(len(configs) * len(pairs), 48)`` matrix."""
    scales = scales or {}
    rows = [layer_features(work, config, scales.get(group, 1.0))
            for config in configs for group, work in pairs]
    if not rows:
        return np.empty((0, len(_NAMES)), dtype=np.float64)
    return np.vstack(rows)
