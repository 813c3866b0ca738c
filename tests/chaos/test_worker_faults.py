"""Worker-level chaos: SIGKILL, hangs, exceptions — at job N, scripted.

Recovery contract: a killed worker is retried with backoff and the
payload is bit-identical to an undisturbed run; a hung worker is
bounded by the timeout watchdog (escalating SIGTERM → SIGKILL); an
exception is a clean typed FAILED outcome.  Nothing wedges the sweep.
"""

from repro.faults import FaultSpec, InjectedFault
from repro.runtime import scheduler
from repro.runtime.health import health_snapshot
from repro.runtime.job import Job
from repro.runtime.scheduler import FAILED, OK

ECHO = "tests.chaos.jobs:echo_job"
SLOW_ECHO = "tests.chaos.jobs:slow_echo_job"
STUBBORN = "tests.chaos.jobs:stubborn_hang_job"


def echo_jobs(n):
    return [Job.create(ECHO, label=f"j{i}", value=i) for i in range(n)]


def slow_echo_jobs(n):
    # The kill scenarios need jobs still running when the scripted
    # SIGKILL (sent right after launch) lands; a plain echo can win
    # that race and deliver its result first.
    return [Job.create(SLOW_ECHO, label=f"j{i}", value=i) for i in range(n)]


class TestWorkerKill:
    def test_sigkilled_worker_retries_to_identical_payload(
        self, arm, quiet_runtime, tmp_path
    ):
        jobs = slow_echo_jobs(4)
        baseline = quiet_runtime(
            cache_dir=tmp_path / "baseline", jobs=2
        ).map(jobs)
        assert [o.status for o in baseline] == [OK] * 4

        # SIGKILL the second worker launch — one job dies mid-flight.
        arm(FaultSpec(site="runtime.worker.kill", action="crash", nth=2))
        runtime = quiet_runtime(cache_dir=tmp_path / "chaos", jobs=2)
        outcomes = runtime.map(jobs)
        assert [o.status for o in outcomes] == [OK] * 4
        assert [o.payload for o in outcomes] == [o.payload for o in baseline]
        assert runtime.stats.crash_retries == 1
        health = health_snapshot()
        assert health["fault.worker.crash"] == 1
        assert health["recovery.worker.crash_retried"] == 1

    def test_repeatedly_killed_job_fails_with_typed_error(
        self, arm, quiet_runtime
    ):
        # Kill every launch of the only job: retries exhaust cleanly.
        arm(
            FaultSpec(
                site="runtime.worker.kill", action="crash", nth=1, count=10
            )
        )
        runtime = quiet_runtime(jobs=2, retries=2)
        outcome = runtime.run_one(slow_echo_jobs(1)[0])
        assert outcome.status == FAILED
        assert "worker died" in outcome.error
        assert "retries exhausted" in outcome.error
        assert outcome.attempts == 3
        assert health_snapshot()["fault.worker.crash"] == 3


class TestWorkerHang:
    def test_injected_hang_is_bounded_by_the_timeout(
        self, arm, quiet_runtime
    ):
        # The worker hangs before running the job; the watchdog reaps it.
        arm(
            FaultSpec(
                site="runtime.worker.start", action="hang", arg=60.0
            )
        )
        runtime = quiet_runtime(jobs=2, timeout=0.5, retries=0)
        outcome = runtime.run_one(echo_jobs(1)[0])
        assert outcome.status == FAILED
        assert "timeout" in outcome.error
        assert health_snapshot()["fault.worker.timeout"] == 1

    def test_sigterm_immune_worker_is_sigkill_escalated(
        self, quiet_runtime, monkeypatch
    ):
        monkeypatch.setattr(scheduler, "KILL_GRACE", 0.2)
        runtime = quiet_runtime(jobs=2, timeout=0.5, retries=0)
        job = Job.create(STUBBORN, label="stubborn", seconds=60.0)
        outcome = runtime.run_one(job)
        assert outcome.status == FAILED
        assert "timeout" in outcome.error
        health = health_snapshot()
        assert health["fault.worker.timeout"] == 1
        assert health["fault.worker.kill_escalated"] == 1


class TestWorkerException:
    def test_injected_exception_is_a_clean_failed_outcome(
        self, arm, quiet_runtime
    ):
        jobs = echo_jobs(3)
        arm(FaultSpec(site="runtime.job.start", action="raise", nth=2))
        runtime = quiet_runtime(jobs=1, use_cache=False)
        outcomes = runtime.map(jobs)
        assert [o.status for o in outcomes] == [OK, FAILED, OK]
        assert InjectedFault.__name__ in outcomes[1].error

    def test_exception_in_isolated_workers_does_not_kill_the_pool(
        self, arm, quiet_runtime
    ):
        # One process per job, each with its own arrival counter: the
        # nth=1 exception fires in *every* worker — a persistent fault.
        # The pool must report each as FAILED and keep going, not die.
        jobs = echo_jobs(3)
        arm(FaultSpec(site="runtime.job.start", action="raise", nth=1))
        runtime = quiet_runtime(jobs=2, use_cache=False)
        outcomes = runtime.map(jobs)
        assert [o.status for o in outcomes] == [FAILED] * 3
        assert all(InjectedFault.__name__ in o.error for o in outcomes)
