"""Parallel sweep harness: map a worker over independent sweep jobs.

The benchmark suite is dominated by embarrassingly-parallel sweeps —
(model, core, sweep-point) jobs that share compiled layers but not
results.  :func:`run_sweep` fans such jobs out over a
``ProcessPoolExecutor`` while keeping three properties the harness
relies on:

* **Warm-cache seeding.**  An optional ``warm`` callable runs in the
  parent *before* the pool forks, so everything it populates — the
  process-global ``GraphEngine._GLOBAL_CACHE``, the lowering memo,
  interned flags — is inherited by every worker via fork copy-on-write.
  Workers then only pay for their job's distinct work.  (The persistent
  compile cache covers the same ground across unrelated processes; warm
  seeding covers it without touching disk.)
* **Deterministic results.**  Results come back in job order, identical
  to the serial map; a worker exception propagates to the caller.
* **Supervised execution.**  Since the fault-tolerance rework, the pool
  runs under :mod:`repro.bench.supervisor`: per-job timeouts
  (``REPRO_SWEEP_TIMEOUT``), bounded retries (``REPRO_SWEEP_RETRIES``),
  incremental checkpoints (``REPRO_SWEEP_CHECKPOINT``), and partial-
  result salvage.  A broken worker or unpicklable job no longer throws
  away completed results and reruns the *whole* sweep serially — only
  the affected job is demoted to the parent.  All knobs default off, in
  which case results are byte-identical to the historic harness.

``run_sweep`` keeps the historic all-or-nothing contract: any job
failure re-raises after salvage.  Callers that want completed results
*plus* structured failure reports use
:func:`repro.bench.supervisor.supervise` directly.

Workers must be module-level functions and jobs picklable values (a
non-picklable worker or job degrades to in-parent execution).
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, TypeVar

from ..errors import SweepError
from .supervisor import SweepPolicy, supervise

__all__ = ["run_sweep", "sweep_workers"]

_ENV_WORKERS = "REPRO_SWEEP_WORKERS"

_J = TypeVar("_J")
_R = TypeVar("_R")


def _fork_context():
    """The ``fork`` multiprocessing context, or None on platforms
    without it (the warm-seeding contract requires fork inheritance)."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def sweep_workers(n_jobs: int) -> int:
    """Worker count for ``n_jobs`` (``REPRO_SWEEP_WORKERS`` overrides).

    ``0`` and ``1`` both select serial execution; anything that is not an
    integer raises :class:`~repro.errors.ConfigError` naming the variable
    (the pre-audit parser silently degraded ``4x`` to serial).
    """
    from ..config.env import env_int

    limit = env_int(_ENV_WORKERS, default=None, minimum=0)
    if limit is None:
        limit = os.cpu_count() or 1
    return max(1, min(limit, n_jobs))


def run_sweep(jobs: Iterable[_J], worker: Callable[[_J], _R],
              max_workers: Optional[int] = None,
              warm: Optional[Callable[[], object]] = None) -> List[_R]:
    """``[worker(job) for job in jobs]``, fanned out over processes.

    ``warm`` (if given) always runs first, in the parent — both so its
    caches are fork-inherited and so serial fallback behaves the same.
    A job that still fails after the supervisor's retry budget re-raises
    its original exception (completed results and failure reports remain
    inspectable on the raised :class:`~repro.errors.SweepError` when no
    original exception could be preserved).
    """
    outcome = supervise(jobs, worker, max_workers=max_workers, warm=warm,
                        policy=SweepPolicy.from_env(fail_fast=True))
    if outcome.failures:
        first = outcome.failures[0]
        if first.exception is not None:
            raise first.exception
        raise SweepError(
            f"sweep job {first.index} failed after "
            f"{len(first.attempts)} attempt(s): {first.error}",
            failures=outcome.failures, results=outcome.results)
    return outcome.results
