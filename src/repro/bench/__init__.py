"""Benchmark-harness utilities (parallel and supervised sweeps, the triage
shortlist)."""

from .runner import run_sweep, sweep_workers
from .supervisor import (Attempt, JobFailureReport, SweepOutcome, SweepPolicy,
                         supervise, sweep_job_key)
from .triage import shortlist_indices

__all__ = ["run_sweep", "sweep_workers", "shortlist_indices", "supervise",
           "SweepPolicy", "SweepOutcome", "JobFailureReport", "Attempt",
           "sweep_job_key"]
