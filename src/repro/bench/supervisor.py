"""Supervised sweep execution: retries, timeouts, quarantine, salvage.

:func:`~repro.bench.runner.run_sweep` fans jobs over a fork-based
``ProcessPoolExecutor``; this module is the supervision layer underneath
it.  The plain pool is all-or-nothing — one hung job stalls the sweep
forever, one dead worker breaks every in-flight future, and the historic
fallback threw away completed results and reran the whole sweep
serially.  The supervisor turns each of those into a per-job event with
a bounded, deterministic response:

* **Per-job wall-clock timeouts** (``REPRO_SWEEP_TIMEOUT`` seconds).  At
  most ``workers`` futures are in flight at once, so an in-flight job is
  a *running* job and a deadline miss means a genuinely hung worker.
  The pool is killed (``terminate`` + respawn — ``ProcessPoolExecutor``
  cannot cancel a running future), the overdue jobs take a timeout
  strike, and innocent in-flight jobs are re-queued as *preempted*
  without consuming retry budget.
* **Bounded retries with seeded deterministic backoff**
  (``REPRO_SWEEP_RETRIES``).  A failed attempt (worker exception,
  corrupted payload, timeout) is retried up to the budget; the backoff
  delay is a pure function of (job index, attempt), so a rerun sweep
  schedules identically.
* **Poison-job quarantine.**  A job that exhausts its budget is recorded
  as a structured :class:`JobFailureReport` — job key, full attempt
  timeline, final exception, the worker's cache-stats delta — and the
  sweep *continues*.  Callers get completed results plus failures
  (partial-result salvage) instead of losing the sweep.
* **Worker-death demotion.**  A job whose budget is exhausted by worker
  deaths reruns serially in the parent — the legacy fallback, now scoped
  to the single poison job instead of the whole sweep.
* **Crash-consistent checkpoints** (``REPRO_SWEEP_CHECKPOINT=<dir>``).
  Completed results whose values survive a JSON round-trip are persisted
  after every completion (atomic temp + ``os.replace``), keyed by a
  content hash of the worker and job list; a resumed sweep restores them
  without re-running the worker.

Cache-statistics discipline: every pool attempt ships its counter delta,
but only the delta of the *successful* attempt is merged into the parent
(failed-attempt deltas land in the failure report instead).  For a
side-effect-free worker this makes merged stats byte-identical whether
or not chaos was injected — exactly one successful attempt per job.

The seeded chaos harness (:mod:`repro.reliability.chaos`,
``REPRO_CHAOS``) plugs in at the worker wrapper: kills and hangs only
fire inside pool workers (a serial "worker" is the parent process;
suppressing them there is what keeps serial sweeps recoverable), payload
corruption fires everywhere.  Because chaos decisions are pure functions
of (seed, job index, attempt), the parent can re-evaluate them to tell a
chaos-killed culprit apart from its innocent pool-mates.

All knobs are off by default; with none set, :func:`supervise` is the
same fork/fan-out/merge dance as the historic ``run_sweep`` and results
are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
import warnings
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import ConfigError, DegradedSweepWarning

__all__ = [
    "SweepPolicy",
    "Attempt",
    "JobFailureReport",
    "SweepOutcome",
    "supervise",
    "sweep_job_key",
    "counters",
    "reset_counters",
    "drain_failures",
]

_ENV_TIMEOUT = "REPRO_SWEEP_TIMEOUT"
_ENV_RETRIES = "REPRO_SWEEP_RETRIES"
_ENV_CHECKPOINT = "REPRO_SWEEP_CHECKPOINT"

CHECKPOINT_SCHEMA = 1

# Backoff: base * 2^(strikes-1), capped, jittered deterministically.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0


# -- policy --------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPolicy:
    """How a supervised sweep responds to failure.

    The defaults reproduce the historic harness exactly: no timeout, no
    retries, no checkpointing — one strike of any kind is terminal.
    """

    timeout: Optional[float] = None      # per-job wall-clock seconds
    retries: int = 0                     # extra attempts per strike kind
    checkpoint_dir: Optional[Path] = None
    fail_fast: bool = False              # stop scheduling on first quarantine

    @classmethod
    def from_env(cls, fail_fast: bool = False) -> "SweepPolicy":
        """Policy from ``REPRO_SWEEP_TIMEOUT`` / ``_RETRIES`` /
        ``_CHECKPOINT`` — strict parsing, garbage raises
        :class:`~repro.errors.ConfigError` naming the variable."""
        from ..config.env import env_float, env_int

        timeout = env_float(_ENV_TIMEOUT, default=None, minimum=0.001)
        retries = env_int(_ENV_RETRIES, default=0, minimum=0)
        checkpoint = _checkpoint_dir_from_env()
        return cls(timeout=timeout, retries=retries,
                   checkpoint_dir=checkpoint, fail_fast=fail_fast)


def _checkpoint_dir_from_env() -> Optional[Path]:
    raw = os.environ.get(_ENV_CHECKPOINT)
    if raw is None or not raw.strip():
        return None
    path = Path(raw.strip())
    if path.exists() and not path.is_dir():
        raise ConfigError(
            f"{_ENV_CHECKPOINT}={raw!r} exists and is not a directory; "
            f"accepted: a (possibly not yet created) directory path"
        )
    return path


# -- structured outcomes -------------------------------------------------------

@dataclass(frozen=True)
class Attempt:
    """One execution attempt of one job."""

    attempt: int          # 0-based attempt number (chaos/backoff seed)
    mode: str             # "pool" | "serial"
    outcome: str          # ok | exception | worker-death | timeout |
    #                       corrupt-payload | pickling | preempted
    error: Optional[str]  # repr of the failure, if any
    seconds: float        # parent-observed wall-clock for this attempt

    def to_dict(self) -> Dict[str, Any]:
        return {"attempt": self.attempt, "mode": self.mode,
                "outcome": self.outcome, "error": self.error,
                "seconds": round(self.seconds, 6)}


@dataclass
class JobFailureReport:
    """Why one job was quarantined (the per-job post-mortem artifact)."""

    index: int                      # position in the sweep's job list
    job_key: Optional[str]          # sha256 content key of the job value
    worker: str                     # qualified name of the worker callable
    attempts: List[Attempt] = field(default_factory=list)
    error: Optional[str] = None     # repr of the terminal failure
    exception: Optional[BaseException] = None   # original, when available
    stats_delta: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON form (drops the live exception object)."""
        return {
            "index": self.index,
            "job_key": self.job_key,
            "worker": self.worker,
            "attempts": [a.to_dict() for a in self.attempts],
            "error": self.error,
            "stats_delta": dict(self.stats_delta),
        }


@dataclass
class SweepOutcome:
    """Everything :func:`supervise` knows after a sweep finishes.

    ``results`` is job-ordered with ``None`` at quarantined (or, under
    ``fail_fast``, never-started) indices; ``failures`` the quarantine
    reports; ``counters`` this run's supervision event counts.
    """

    results: List[Any]
    failures: List[JobFailureReport]
    counters: Dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.failures


# -- cumulative counters -------------------------------------------------------

_COUNTER_KEYS = (
    "jobs", "retries", "preempted", "timeouts", "worker_deaths",
    "corrupt_payloads", "exceptions", "quarantined", "serial_demotions",
    "pool_respawns", "checkpoint_hits", "checkpoint_unserializable",
    "checkpoint_errors", "chaos_suppressed",
)

_COUNTERS: Dict[str, int] = {k: 0 for k in _COUNTER_KEYS}
_FAILURES: List[JobFailureReport] = []


def counters() -> Dict[str, int]:
    """Cumulative supervision counters for this process."""
    return dict(_COUNTERS)


def reset_counters() -> None:
    for k in _COUNTERS:
        _COUNTERS[k] = 0


def drain_failures() -> List[JobFailureReport]:
    """All failure reports since the last drain (and clear the buffer)."""
    out = list(_FAILURES)
    _FAILURES.clear()
    return out


# -- job keys & checkpoints ----------------------------------------------------

def sweep_job_key(job: Any) -> str:
    """Content key of one job value (canonical-JSON sha256).

    Uses the compile cache's canonical encoder, so dataclass jobs (DSE
    candidates, predictor dataset entries) key by type + field values,
    stable across processes and runs.
    """
    from ..compiler import cache

    return hashlib.sha256(cache.canonical_json(job).encode()).hexdigest()


def _run_key(worker_name: str, job_keys: Sequence[str]) -> str:
    blob = json.dumps({"schema": CHECKPOINT_SCHEMA, "worker": worker_name,
                       "jobs": list(job_keys)},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _Checkpoint:
    """Crash-consistent incremental result store for one sweep.

    One JSON file per (worker, job list) content key; rewritten
    atomically after every completion.  Only values that survive an
    exact JSON round-trip are persisted — anything else is counted and
    simply re-runs on resume, so a restored result is always equal to
    the original, never a lossy decode.
    """

    def __init__(self, directory: Path, worker_name: str,
                 job_keys: Sequence[str],
                 count: Optional[Callable[[str], None]] = None) -> None:
        self.run_key = _run_key(worker_name, job_keys)
        self.path = directory / f"sweep-{self.run_key[:16]}.json"
        self.worker_name = worker_name
        self.n_jobs = len(job_keys)
        self.saved: Dict[int, Any] = {}
        self._count = count if count is not None else (
            lambda key: _COUNTERS.__setitem__(key, _COUNTERS[key] + 1))

    def load(self) -> Dict[int, Any]:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return {}
        except ValueError:
            self._quarantine("corrupt JSON")
            return {}
        except OSError:
            self._count("checkpoint_errors")
            return {}
        if (not isinstance(payload, dict)
                or payload.get("schema") != CHECKPOINT_SCHEMA
                or payload.get("run_key") != self.run_key
                or not isinstance(payload.get("results"), dict)):
            self._quarantine("schema/run-key mismatch")
            return {}
        restored = {}
        for key, value in payload["results"].items():
            try:
                index = int(key)
            except ValueError:
                continue
            if 0 <= index < self.n_jobs:
                restored[index] = value
        self.saved = dict(restored)
        return restored

    def record(self, index: int, result: Any) -> None:
        try:
            if json.loads(json.dumps(result)) != result:
                raise ValueError("not JSON round-trippable")
        except (TypeError, ValueError):
            self._count("checkpoint_unserializable")
            return
        self.saved[index] = result
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "run_key": self.run_key,
            "worker": self.worker_name,
            "n_jobs": self.n_jobs,
            "results": {str(i): r for i, r in sorted(self.saved.items())},
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, self.path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            self._count("checkpoint_errors")

    def _quarantine(self, why: str) -> None:
        self._count("checkpoint_errors")
        try:
            os.replace(self.path, self.path.with_suffix(".corrupt"))
        except OSError:
            pass
        warnings.warn(
            f"sweep checkpoint {self.path} unusable ({why}); moved aside, "
            f"resuming from scratch", DegradedSweepWarning, stacklevel=3)


# -- worker side ---------------------------------------------------------------
#
# The worker callable and the parent's counter snapshot ride into the
# pool via fork-inherited module globals (never pickled); every attempt
# returns ``(index, attempt, payload, stats_delta)`` where the delta
# covers exactly the counters this worker accumulated since its previous
# attempt (or since fork, for its first).

_SWEEP_WORKER: Optional[Callable] = None
_FORK_SNAP: dict = {}
_LAST_SNAP: Optional[dict] = None


@dataclass(frozen=True)
class _WorkerError:
    """A worker exception, shipped back as a value (picklable always)."""

    error: str                          # repr of the exception
    payload: Optional[bytes] = None     # pickled exception, when possible

    def exception(self) -> Optional[BaseException]:
        if self.payload is None:
            return None
        try:
            return pickle.loads(self.payload)
        except Exception:
            return None


def _supervised_call(task):
    """Run one (index, attempt, job) in a pool worker, chaos included."""
    global _LAST_SNAP
    from ..compiler import cache
    from ..reliability.chaos import ChaosCorruption, active_chaos

    index, attempt, job = task
    if _LAST_SNAP is None:  # first attempt in this worker process
        _LAST_SNAP = dict(_FORK_SNAP)
    monkey = active_chaos()
    action = monkey.action(index, attempt) if monkey is not None else None
    if action == "kill":
        os._exit(monkey.plan.kill.exit_code)
    if action == "hang":
        time.sleep(monkey.plan.hang.seconds)
    payload: Any
    try:
        payload = _SWEEP_WORKER(job)
        failed = False
    except Exception as exc:
        try:
            blob = pickle.dumps(exc)
        except Exception:
            blob = None
        payload = _WorkerError(error=repr(exc), payload=blob)
        failed = True
    now = cache.snapshot()
    delta = {k: v - _LAST_SNAP.get(k, 0) for k, v in now.items()}
    _LAST_SNAP = now
    if not failed and action == "corrupt":
        payload = ChaosCorruption(job_index=index, attempt=attempt)
    return index, attempt, payload, delta


# -- parent-side job state -----------------------------------------------------

class _JobState:
    __slots__ = ("index", "job", "attempt", "attempts", "strikes",
                 "ready_at", "deadline", "submitted_at", "last_error",
                 "last_exc", "last_delta")

    def __init__(self, index: int, job: Any) -> None:
        self.index = index
        self.job = job
        self.attempt = 0                 # next attempt number
        self.attempts: List[Attempt] = []
        self.strikes = {"exception": 0, "timeout": 0,
                        "corrupt-payload": 0, "worker-death": 0}
        self.ready_at = 0.0              # monotonic time gate (backoff)
        self.deadline: Optional[float] = None
        self.submitted_at = 0.0
        self.last_error: Optional[str] = None
        self.last_exc: Optional[BaseException] = None
        self.last_delta: Dict[str, int] = {}

    def total_strikes(self) -> int:
        return sum(self.strikes.values())


def _backoff(index: int, attempt: int, strikes: int) -> float:
    """Deterministic jittered exponential backoff for one retry."""
    base = min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** max(0, strikes - 1)))
    jitter = 0.5 + 0.5 * float(
        np.random.default_rng([int(index), int(attempt)]).random())
    return base * jitter


def _worker_name(worker: Callable) -> str:
    return (f"{getattr(worker, '__module__', '?')}."
            f"{getattr(worker, '__qualname__', repr(worker))}")


def _chaos_action(index: int, attempt: int) -> Optional[str]:
    """Parent-side replay of the worker's chaos decision (pure)."""
    from ..reliability.chaos import active_chaos

    monkey = active_chaos()
    return monkey.action(index, attempt) if monkey is not None else None


# -- the supervisor ------------------------------------------------------------

class _Supervisor:
    def __init__(self, job_list: Sequence[Any], worker: Callable,
                 workers: int, policy: SweepPolicy, ctx) -> None:
        self.worker = worker
        self.worker_name = _worker_name(worker)
        self.workers = workers
        self.policy = policy
        self.ctx = ctx
        self.results: List[Any] = [None] * len(job_list)
        self.failures: List[JobFailureReport] = []
        self.run_counters: Dict[str, int] = {k: 0 for k in _COUNTER_KEYS}
        self.pending: List[_JobState] = [
            _JobState(i, job) for i, job in enumerate(job_list)]
        self.serial_queue: List[_JobState] = []
        self.in_flight: Dict[Any, _JobState] = {}
        self.aborting = False
        self.checkpoint: Optional[_Checkpoint] = None
        self.pool: Optional[ProcessPoolExecutor] = None

    def _count(self, key: str, n: int = 1) -> None:
        _COUNTERS[key] += n
        self.run_counters[key] += n

    # -- checkpoint restore ----------------------------------------------------

    def restore_checkpoint(self) -> None:
        if self.policy.checkpoint_dir is None:
            return
        keys = [sweep_job_key(js.job) for js in self.pending]
        self.checkpoint = _Checkpoint(
            self.policy.checkpoint_dir, self.worker_name, keys,
            count=self._count)
        restored = self.checkpoint.load()
        if not restored:
            return
        kept = []
        for js in self.pending:
            if js.index in restored:
                self.results[js.index] = restored[js.index]
                self._count("checkpoint_hits")
            else:
                kept.append(js)
        self.pending = kept

    # -- terminal transitions --------------------------------------------------

    def _accept(self, js: _JobState, result: Any,
                delta: Optional[Dict[str, int]], mode: str,
                seconds: float) -> None:
        from ..compiler import cache

        js.attempts.append(Attempt(js.attempt, mode, "ok", None, seconds))
        self.results[js.index] = result
        if delta:
            cache.merge_stats(delta)
        if self.checkpoint is not None:
            self.checkpoint.record(js.index, result)
        self._count("jobs")

    def _quarantine(self, js: _JobState) -> None:
        report = JobFailureReport(
            index=js.index,
            job_key=sweep_job_key(js.job),
            worker=self.worker_name,
            attempts=list(js.attempts),
            error=js.last_error,
            exception=js.last_exc,
            stats_delta=dict(js.last_delta),
        )
        self.failures.append(report)
        _FAILURES.append(report)
        self._count("quarantined")
        if self.policy.fail_fast:
            # The caller re-raises — an extra degraded warning on top of
            # the exception would be noise.
            self.aborting = True
        else:
            warnings.warn(
                f"sweep job {js.index} quarantined after "
                f"{len(js.attempts)} attempt(s): {js.last_error}",
                DegradedSweepWarning, stacklevel=4)

    # -- strike bookkeeping ----------------------------------------------------

    def _strike(self, js: _JobState, outcome: str, mode: str,
                error: Optional[str], exc: Optional[BaseException],
                delta: Optional[Dict[str, int]], seconds: float) -> None:
        """Record a failed attempt and route the job onward."""
        js.attempts.append(Attempt(js.attempt, mode, outcome, error, seconds))
        js.last_error = error
        js.last_exc = exc
        if delta:
            js.last_delta = dict(delta)
        if outcome == "preempted":
            # Collateral of a pool kill: not this job's fault, so no
            # budget is consumed and the *same* attempt number is
            # retried — its chaos decision (if any) never fired, and
            # keeping the number keeps injected faults independent of
            # how pool teardowns interleave with job completions.
            # (Culprits are never routed here: chaos kills are replayed
            # parent-side and deadline misses take the timeout path, so
            # a preempted attempt cannot re-kill or re-hang forever.)
            self._count("preempted")
            js.ready_at = 0.0
            self.pending.append(js)
            return
        js.attempt += 1
        if outcome == "pickling":
            # Transport, not the job's logic: demote to serial, no strike.
            self._count("serial_demotions")
            self.serial_queue.append(js)
            return
        js.strikes[outcome] += 1
        counter = {"exception": "exceptions", "timeout": "timeouts",
                   "corrupt-payload": "corrupt_payloads",
                   "worker-death": "worker_deaths"}[outcome]
        self._count(counter)
        if js.strikes[outcome] > self.policy.retries:
            if outcome == "worker-death":
                # The legacy response, scoped to this one job: rerun it
                # in the parent where a dying pool cannot eat it again.
                self._count("serial_demotions")
                self.serial_queue.append(js)
            else:
                self._quarantine(js)
            return
        self._count("retries")
        js.ready_at = time.monotonic() + _backoff(
            js.index, js.attempt, js.total_strikes())
        self.pending.append(js)

    # -- pool lifecycle --------------------------------------------------------

    def _spawn_pool(self) -> None:
        from ..compiler import cache

        global _FORK_SNAP, _LAST_SNAP
        _FORK_SNAP = cache.snapshot()
        _LAST_SNAP = None
        self.pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self.ctx)

    def _kill_pool(self) -> None:
        """Tear a (possibly hung or broken) pool down, hard."""
        pool = self.pool
        self.pool = None
        if pool is None:
            return
        procs = list((getattr(pool, "_processes", None) or {}).values())
        for proc in procs:
            try:
                proc.terminate()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        deadline = time.monotonic() + 5.0
        for proc in procs:
            try:
                proc.join(max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    proc.kill()
            except Exception:
                pass

    def _submit(self, js: _JobState) -> None:
        js.submitted_at = time.monotonic()
        js.deadline = (js.submitted_at + self.policy.timeout
                       if self.policy.timeout is not None else None)
        future = self.pool.submit(
            _supervised_call, (js.index, js.attempt, js.job))
        self.in_flight[future] = js

    # -- future handling -------------------------------------------------------

    def _handle_done(self, future) -> bool:
        """Process one completed future.  True = pool still healthy."""
        from ..reliability.chaos import ChaosCorruption

        js = self.in_flight.pop(future)
        seconds = time.monotonic() - js.submitted_at
        try:
            index, attempt, payload, delta = future.result()
        except BrokenExecutor:
            self.in_flight[future] = js  # classify with its pool-mates
            return False
        except (pickle.PicklingError, AttributeError) as exc:
            self._strike(js, "pickling", "pool", repr(exc), exc,
                         None, seconds)
            return True
        if isinstance(payload, _WorkerError):
            self._strike(js, "exception", "pool", payload.error,
                         payload.exception(), delta, seconds)
        elif isinstance(payload, ChaosCorruption):
            self._strike(js, "corrupt-payload", "pool",
                         f"corrupted payload (chaos attempt {attempt})",
                         None, delta, seconds)
        else:
            self._accept(js, payload, delta, "pool", seconds)
        return True

    def _recover_pool(self, overdue: Sequence[_JobState],
                      broken: bool) -> None:
        """Kill + respawn the pool; reroute every in-flight job.

        ``overdue`` holds deadline-missed jobs (timeout strike); when
        ``broken``, a worker died and the chaos plan (if any) is
        replayed to identify the culprit — everyone else in flight is
        preempted, not punished.
        """
        in_flight = list(self.in_flight.items())
        self.in_flight.clear()
        self._kill_pool()
        self._count("pool_respawns")
        overdue_set = {id(js) for js in overdue}
        culprits = set()
        if broken:
            for _, js in in_flight:
                if _chaos_action(js.index, js.attempt) == "kill":
                    culprits.add(id(js))
            if not culprits:
                # A real (un-injected) death: no way to tell who did it,
                # so every in-flight job takes the strike.
                culprits = {id(js) for _, js in in_flight
                            if id(js) not in overdue_set}
        for future, js in in_flight:
            seconds = time.monotonic() - js.submitted_at
            if future.done() and not future.cancelled():
                try:
                    _, _, payload, delta = future.result(timeout=0)
                except Exception:
                    pass
                else:
                    from ..reliability.chaos import ChaosCorruption
                    if isinstance(payload, _WorkerError):
                        self._strike(js, "exception", "pool", payload.error,
                                     payload.exception(), delta, seconds)
                        continue
                    if not isinstance(payload, ChaosCorruption):
                        self._accept(js, payload, delta, "pool", seconds)
                        continue
                    self._strike(js, "corrupt-payload", "pool",
                                 "corrupted payload", None, delta, seconds)
                    continue
            if id(js) in overdue_set:
                self._strike(js, "timeout", "pool",
                             f"exceeded {self.policy.timeout}s deadline",
                             None, None, seconds)
            elif id(js) in culprits:
                self._strike(js, "worker-death", "pool",
                             "worker process died mid-job", None, None,
                             seconds)
            else:
                self._strike(js, "preempted", "pool",
                             "pool torn down around this job", None, None,
                             seconds)
        if self._pool_work_remains():
            self._spawn_pool()

    def _pool_work_remains(self) -> bool:
        return bool(self.pending) and not self.aborting

    # -- main loops ------------------------------------------------------------

    def run_pool(self) -> None:
        self.pending.sort(key=lambda js: js.index)
        self._spawn_pool()
        try:
            while (self.pending or self.in_flight) and not (
                    self.aborting and not self.in_flight):
                now = time.monotonic()
                if not self.aborting:
                    ready = [js for js in self.pending if js.ready_at <= now]
                    ready.sort(key=lambda js: js.index)
                    while ready and len(self.in_flight) < self.workers:
                        js = ready.pop(0)
                        self.pending.remove(js)
                        self._submit(js)
                if not self.in_flight:
                    if self.pending and not self.aborting:
                        gate = min(js.ready_at for js in self.pending)
                        time.sleep(max(0.0, gate - time.monotonic()))
                        continue
                    break
                tick = self._tick(now)
                done, _ = wait(set(self.in_flight), timeout=tick,
                               return_when=FIRST_COMPLETED)
                healthy = True
                for future in done:
                    if future in self.in_flight:
                        healthy = self._handle_done(future)
                        if not healthy:
                            break
                if not healthy:
                    self._recover_pool(overdue=[], broken=True)
                    continue
                now = time.monotonic()
                overdue = [js for js in self.in_flight.values()
                           if js.deadline is not None and js.deadline <= now]
                if overdue:
                    self._recover_pool(overdue=overdue, broken=False)
        finally:
            self._kill_pool()

    def _tick(self, now: float) -> Optional[float]:
        slacks = []
        for js in self.in_flight.values():
            if js.deadline is not None:
                slacks.append(js.deadline - now)
        for js in self.pending:
            if js.ready_at > now:
                slacks.append(js.ready_at - now)
        if not slacks:
            return None
        return max(0.01, min(slacks))

    def run_serial(self, primary: bool) -> None:
        """Drain jobs in the parent process.

        ``primary`` marks the no-pool path (few jobs, forced serial, no
        fork): chaos kills/hangs are suppressed either way — the
        "worker" here is the supervisor's own process — and counted, so
        a chaos campaign over a serial sweep still reports what it
        *would* have injected.
        """
        queue = self.serial_queue if not primary else self.pending
        queue.sort(key=lambda js: js.index)
        while queue and not self.aborting:
            js = queue.pop(0)
            gate = js.ready_at - time.monotonic()
            if gate > 0:
                time.sleep(gate)
            action = _chaos_action(js.index, js.attempt)
            if action in ("kill", "hang"):
                self._count("chaos_suppressed")
                action = None
            start = time.monotonic()
            try:
                result = self.worker(js.job)
            except Exception as exc:
                seconds = time.monotonic() - start
                js.attempts.append(Attempt(js.attempt, "serial", "exception",
                                           repr(exc), seconds))
                js.attempt += 1
                js.last_error = repr(exc)
                js.last_exc = exc
                js.strikes["exception"] += 1
                self._count("exceptions")
                if js.strikes["exception"] > self.policy.retries:
                    self._quarantine(js)
                else:
                    self._count("retries")
                    js.ready_at = time.monotonic() + _backoff(
                        js.index, js.attempt, js.total_strikes())
                    queue.append(js)
                    queue.sort(key=lambda js: js.index)
                continue
            seconds = time.monotonic() - start
            if action == "corrupt":
                js.attempts.append(Attempt(
                    js.attempt, "serial", "corrupt-payload",
                    "corrupted payload (chaos)", seconds))
                js.attempt += 1
                js.last_error = "corrupted payload (chaos)"
                js.strikes["corrupt-payload"] += 1
                self._count("corrupt_payloads")
                if js.strikes["corrupt-payload"] > self.policy.retries:
                    self._quarantine(js)
                else:
                    self._count("retries")
                    js.ready_at = time.monotonic() + _backoff(
                        js.index, js.attempt, js.total_strikes())
                    queue.append(js)
                    queue.sort(key=lambda js: js.index)
                continue
            self._accept(js, result, None, "serial", seconds)


# -- entry point ---------------------------------------------------------------

def supervise(jobs: Iterable[Any], worker: Callable[[Any], Any],
              max_workers: Optional[int] = None,
              warm: Optional[Callable[[], object]] = None,
              policy: Optional[SweepPolicy] = None) -> SweepOutcome:
    """Run ``worker`` over ``jobs`` under supervision.

    Same execution contract as the historic ``run_sweep`` — ``warm``
    runs in the parent before the pool forks, results come back in job
    order — plus the failure handling documented at module level.
    Returns a :class:`SweepOutcome`; never raises for job failures
    (callers that want the legacy raise use
    :func:`repro.bench.runner.run_sweep`).
    """
    from .runner import _fork_context, sweep_workers

    if policy is None:
        policy = SweepPolicy.from_env()
    job_list = list(jobs)
    if warm is not None:
        warm()
    if not job_list:
        return SweepOutcome([], [], {k: 0 for k in _COUNTER_KEYS})
    workers = (max_workers if max_workers is not None
               else sweep_workers(len(job_list)))
    workers = max(1, min(workers, len(job_list)))
    ctx = _fork_context()

    sup = _Supervisor(job_list, worker, workers, policy, ctx)
    sup.restore_checkpoint()
    if workers <= 1 or ctx is None:
        sup.run_serial(primary=True)
        return SweepOutcome(sup.results, sup.failures, sup.run_counters)

    global _SWEEP_WORKER
    _SWEEP_WORKER = worker
    try:
        sup.run_pool()
    finally:
        _SWEEP_WORKER = None
    sup.run_serial(primary=False)
    return SweepOutcome(sup.results, sup.failures, sup.run_counters)
