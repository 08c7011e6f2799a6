"""Supervised sweeps: salvage, retries, quarantine, chaos, checkpoints.

The marquee contract (ISSUE 9): a seeded chaos campaign injecting worker
kills, job hangs, and corrupted payloads into a parallel sweep must
recover to results byte-identical to the fault-free run — and with no
chaos and no knobs set, the supervisor must be byte-identical to the
historic harness.
"""

import json
import multiprocessing
import os
import warnings

import pytest

from repro.bench import (JobFailureReport, SweepPolicy, run_sweep, supervise,
                         sweep_job_key)
from repro.bench import supervisor as sup_mod
from repro.errors import DegradedSweepWarning, SweepError
from repro.reliability.chaos import (ChaosPlan, CorruptChaos, HangChaos,
                                     KillChaos, chaos_scope)

# The verified seed=0 campaign over jobs 0-7: corrupts (0,0), kills
# (2,0) and (7,0), hangs (7,1) — job 7 survives kill -> hang -> ok.
CHAOS_PLAN = ChaosPlan(seed=0,
                       kill=KillChaos(probability=0.10),
                       hang=HangChaos(probability=0.08, seconds=20.0),
                       corrupt=CorruptChaos(probability=0.10))
CHAOS_POLICY = SweepPolicy(timeout=1.0, retries=2)


# -- module-level workers (pool workers must be picklable by name) ------------

def _square(job):
    return job * job


def _square_with_pid(job):
    return job * job, os.getpid()


def _boom_on_3(job):
    if job == 3:
        raise RuntimeError(f"job {job} is poison")
    return job * job


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception refuses to pickle")


def _boom_unpicklable(job):
    if job == 3:
        raise _Unpicklable("job 3 is poison")
    return job * job


def _bump_and_square(job):
    from repro.compiler import cache

    cache._STATS["misses"] += 1
    return job * job


def _bump_then_flaky(job):
    # Bumps a cache counter on *every* attempt, then fails job 3 exactly
    # once (marker file): proves only the successful attempt's stats
    # delta is merged into the parent.
    from repro.compiler import cache

    directory, value = job
    cache._STATS["misses"] += 1
    if value == 3:
        marker = os.path.join(directory, "flaky-once")
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            raise RuntimeError("flaky, once")
    return value * value


def _die_in_pool_once(job):
    # Hard-crashes the worker process the first time job 5 runs in a
    # pool (marker file guards the retry); always safe in the parent.
    directory, value = job
    if value == 5 and multiprocessing.parent_process() is not None:
        marker = os.path.join(directory, "died-once")
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            os._exit(137)
    return value * value


def _die_in_pool_always(job):
    # Kills any worker process that picks up job 5, every time; only the
    # parent can complete it (the serial-demotion path).
    directory, value = job
    if value == 5 and multiprocessing.parent_process() is not None:
        os._exit(137)
    return value * value


def _log_and_square(job):
    directory, value = job
    with open(os.path.join(directory, "calls.log"), "a") as fh:
        fh.write(f"{value}\n")
    return value * value


def _log_and_return_object(job):
    directory, value = job
    with open(os.path.join(directory, "calls.log"), "a") as fh:
        fh.write(f"{value}\n")
    return object()


def _call_log(directory):
    path = os.path.join(str(directory), "calls.log")
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [int(line) for line in fh.read().split()]


# -- partial-result salvage (satellite 1) -------------------------------------

class TestSalvage:
    def test_poison_job_salvages_completed_results(self):
        with pytest.warns(DegradedSweepWarning, match="job 3 quarantined"):
            outcome = supervise(range(6), _boom_on_3, max_workers=1,
                                policy=SweepPolicy())
        assert outcome.results == [0, 1, 4, None, 16, 25]
        assert not outcome.ok
        [report] = outcome.failures
        assert isinstance(report, JobFailureReport)
        assert report.index == 3
        assert report.job_key == sweep_job_key(3)
        assert "poison" in report.error
        assert [a.outcome for a in report.attempts] == ["exception"]

    def test_run_sweep_reraises_original_exception(self):
        with pytest.raises(RuntimeError, match="job 3 is poison"):
            run_sweep(range(6), _boom_on_3, max_workers=2)

    def test_unpicklable_exception_degrades_to_sweep_error(self):
        # No original exception can cross the IPC boundary, so run_sweep
        # raises SweepError still carrying the salvaged results.
        with pytest.raises(SweepError, match="job 3 failed") as excinfo:
            run_sweep(range(6), _boom_unpicklable, max_workers=2)
        err = excinfo.value
        assert err.results[:3] == [0, 1, 4]
        assert err.results[3] is None
        assert [f.index for f in err.failures] == [3]

    def test_broken_pool_completes_without_rerunning_sweep(self, tmp_path):
        # Regression (satellite 1): a worker death used to discard every
        # completed result and rerun the whole sweep serially.  Now the
        # pool respawns, the dead job retries, and the sweep completes.
        jobs = [(str(tmp_path), v) for v in range(8)]
        outcome = supervise(jobs, _die_in_pool_once, max_workers=2,
                            policy=SweepPolicy(retries=1))
        assert outcome.ok
        assert outcome.results == [v * v for v in range(8)]
        # An un-injected death cannot name its culprit, so an innocent
        # in-flight pool-mate may take a strike too — at least one lands.
        assert outcome.counters["worker_deaths"] >= 1
        assert outcome.counters["pool_respawns"] >= 1

    def test_repeat_deaths_demote_only_the_poison_job(self, tmp_path):
        # The legacy serial fallback, scoped to the one job that keeps
        # killing its workers — everything else stays parallel.
        jobs = [(str(tmp_path), v) for v in range(8)]
        outcome = supervise(jobs, _die_in_pool_always, max_workers=2,
                            policy=SweepPolicy(retries=1))
        assert outcome.ok
        assert outcome.results == [v * v for v in range(8)]
        assert outcome.counters["serial_demotions"] == 1
        assert outcome.counters["worker_deaths"] >= 2

    def test_only_successful_attempt_stats_delta_merges(self, tmp_path):
        from repro.compiler import cache

        jobs = [(str(tmp_path), v) for v in range(6)]
        before = cache.snapshot()
        outcome = supervise(jobs, _bump_then_flaky, max_workers=2,
                            policy=SweepPolicy(retries=1))
        after = cache.snapshot()
        assert outcome.ok
        assert outcome.counters["exceptions"] == 1
        # 7 attempts bumped the counter, but the failed attempt's delta
        # must not merge: exactly one successful attempt per job.
        assert after["misses"] - before["misses"] == 6


# -- chaos byte-identity ------------------------------------------------------

class TestChaos:
    def test_pool_matches_serial_without_chaos(self):
        serial = supervise(range(8), _square, max_workers=1)
        pooled = supervise(range(8), _square, max_workers=2)
        assert serial.results == pooled.results == [j * j for j in range(8)]
        assert serial.ok and pooled.ok

    def test_chaos_campaign_recovers_byte_identical_results(self):
        from repro.compiler import cache

        clean = supervise(range(8), _bump_and_square, max_workers=2)
        before = cache.snapshot()
        with chaos_scope(CHAOS_PLAN):
            chaotic = supervise(range(8), _bump_and_square, max_workers=2,
                                policy=CHAOS_POLICY)
        after = cache.snapshot()
        assert chaotic.ok
        assert chaotic.results == clean.results
        counts = chaotic.counters
        assert counts["worker_deaths"] >= 1
        assert counts["timeouts"] >= 1
        assert counts["corrupt_payloads"] >= 1
        assert counts["pool_respawns"] >= 1
        assert counts["quarantined"] == 0
        # Merged cache stats are chaos-invariant too: one successful
        # attempt per job, failed-attempt deltas dropped.
        assert after["misses"] - before["misses"] == 8

    def test_serial_sweep_suppresses_kill_and_hang(self):
        # The serial "worker" is the supervisor's own process: killing or
        # hanging it would take the suite down, so those kinds are
        # suppressed (and counted); corruption still fires and retries.
        with chaos_scope(CHAOS_PLAN):
            outcome = supervise(range(8), _square, max_workers=1,
                                policy=SweepPolicy(retries=2))
        assert outcome.ok
        assert outcome.results == [j * j for j in range(8)]
        assert outcome.counters["chaos_suppressed"] >= 1
        assert outcome.counters["corrupt_payloads"] >= 1

    def test_corruption_past_budget_quarantines(self):
        plan = ChaosPlan(seed=0, corrupt=CorruptChaos(probability=1.0))
        with chaos_scope(plan), \
                pytest.warns(DegradedSweepWarning, match="quarantined"):
            outcome = supervise(range(3), _square, max_workers=1,
                                policy=SweepPolicy(retries=1))
        assert outcome.results == [None, None, None]
        assert len(outcome.failures) == 3
        report = outcome.failures[0]
        assert [a.outcome for a in report.attempts] \
            == ["corrupt-payload", "corrupt-payload"]


# -- crash-consistent checkpoints ---------------------------------------------

class TestCheckpoints:
    def _policy(self, tmp_path):
        return SweepPolicy(checkpoint_dir=tmp_path / "ckpt")

    def test_resume_reruns_nothing(self, tmp_path):
        jobs = [(str(tmp_path), v) for v in range(6)]
        first = supervise(jobs, _log_and_square, max_workers=1,
                          policy=self._policy(tmp_path))
        assert first.ok and _call_log(tmp_path) == list(range(6))

        second = supervise(jobs, _log_and_square, max_workers=1,
                           policy=self._policy(tmp_path))
        assert second.results == first.results
        assert second.counters["checkpoint_hits"] == 6
        assert second.counters["jobs"] == 0
        # Zero re-simulation: the worker never ran again.
        assert _call_log(tmp_path) == list(range(6))

    def test_restored_results_equal_originals_exactly(self, tmp_path):
        jobs = [(str(tmp_path), v) for v in range(4)]
        first = supervise(jobs, _log_and_square, max_workers=1,
                          policy=self._policy(tmp_path))
        [ckpt] = list((tmp_path / "ckpt").glob("sweep-*.json"))
        payload = json.loads(ckpt.read_text())
        assert payload["schema"] == sup_mod.CHECKPOINT_SCHEMA
        assert [payload["results"][str(i)] for i in range(4)] \
            == first.results

    def test_corrupt_checkpoint_moves_aside_and_resumes_clean(self, tmp_path):
        jobs = [(str(tmp_path), v) for v in range(4)]
        supervise(jobs, _log_and_square, max_workers=1,
                  policy=self._policy(tmp_path))
        [ckpt] = list((tmp_path / "ckpt").glob("sweep-*.json"))
        ckpt.write_text("{ not json")

        with pytest.warns(DegradedSweepWarning, match="checkpoint"):
            outcome = supervise(jobs, _log_and_square, max_workers=1,
                                policy=self._policy(tmp_path))
        assert outcome.results == [v * v for v in range(4)]
        assert ckpt.with_suffix(".corrupt").exists()
        # All four jobs re-ran (the corrupt store bought nothing)...
        assert _call_log(tmp_path) == list(range(4)) * 2
        # ...and the rewritten checkpoint is valid again.
        assert json.loads(ckpt.read_text())["results"]

    def test_non_json_results_are_not_persisted(self, tmp_path):
        jobs = [(str(tmp_path), v) for v in range(3)]
        outcome = supervise(jobs, _log_and_return_object, max_workers=1,
                            policy=self._policy(tmp_path))
        assert outcome.ok
        assert outcome.counters["checkpoint_unserializable"] == 3
        # Resume finds nothing restorable and re-runs honestly.
        supervise(jobs, _log_and_return_object, max_workers=1,
                  policy=self._policy(tmp_path))
        assert _call_log(tmp_path) == list(range(3)) * 2

    def test_different_job_list_never_shares_a_checkpoint(self, tmp_path):
        jobs = [(str(tmp_path), v) for v in range(3)]
        supervise(jobs, _log_and_square, max_workers=1,
                  policy=self._policy(tmp_path))
        other = jobs + [(str(tmp_path), 99)]
        outcome = supervise(other, _log_and_square, max_workers=1,
                            policy=self._policy(tmp_path))
        assert outcome.counters["checkpoint_hits"] == 0
        assert outcome.results == [v * v for _, v in other]


# -- platforms without fork ---------------------------------------------------

class TestNoForkFallback:
    def test_pool_request_runs_serially_in_job_order(self, monkeypatch):
        import repro.bench.runner as runner

        serial = supervise(range(8), _square_with_pid, max_workers=1)
        monkeypatch.setattr(runner, "_fork_context", lambda: None)
        outcome = supervise(range(8), _square_with_pid, max_workers=4)
        assert outcome.ok and outcome.failures == []
        assert outcome.results == serial.results
        # In job order, and every job ran here: no pool was started.
        assert outcome.results == [(j * j, os.getpid()) for j in range(8)]
        assert outcome.counters["quarantined"] == 0


# -- defaults stay inert ------------------------------------------------------

class TestDefaultsInert:
    def test_no_knobs_no_warnings_no_counters(self):
        sup_mod.reset_counters()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = supervise(range(5), _square, max_workers=2)
        assert outcome.results == [j * j for j in range(5)]
        counts = sup_mod.counters()
        assert counts["jobs"] == 5
        for key, value in counts.items():
            if key != "jobs":
                assert value == 0, (key, value)

    def test_policy_defaults_match_legacy(self):
        policy = SweepPolicy()
        assert policy.timeout is None
        assert policy.retries == 0
        assert policy.checkpoint_dir is None
        assert policy.fail_fast is False
