"""Scheduler behaviour: ordering, caching, crash retry, timeout, Ctrl-C."""

import time

import pytest

from repro.runtime import (
    EventBus,
    ExperimentRuntime,
    Job,
    JobError,
    ResultCache,
    RuntimeConfig,
    payloads,
)
from repro.runtime.events import MemorySink

ECHO = "tests.runtime.helper_jobs:echo_job"
PID = "tests.runtime.helper_jobs:pid_job"
SLOW = "tests.runtime.helper_jobs:slow_job"
FAIL = "tests.runtime.helper_jobs:failing_job"
CRASH_ONCE = "tests.runtime.helper_jobs:crash_once_job"
ALWAYS_CRASH = "tests.runtime.helper_jobs:always_crash_job"
INTERRUPT = "tests.runtime.helper_jobs:interrupt_job"


def runtime(tmp_path, sink=None, **config):
    return ExperimentRuntime(
        config=RuntimeConfig(**config),
        cache=ResultCache(root=tmp_path / "cache"),
        bus=EventBus([sink] if sink else []),
    )


class TestSerial:
    def test_outcomes_align_with_input_order(self, tmp_path):
        rt = runtime(tmp_path, jobs=1)
        jobs = [Job.create(ECHO, value=i) for i in range(5)]
        outcomes = rt.map(jobs)
        assert [o.payload["value"] for o in outcomes] == list(range(5))
        assert all(o.status == "ok" for o in outcomes)

    def test_second_run_hits_cache(self, tmp_path):
        rt = runtime(tmp_path, jobs=1)
        jobs = [Job.create(ECHO, value=i) for i in range(3)]
        rt.map(jobs)
        outcomes = rt.map(jobs)
        assert [o.status for o in outcomes] == ["cached"] * 3
        assert rt.stats.cache_hits == 3
        assert rt.stats.executed == 3

    def test_job_exception_is_isolated(self, tmp_path):
        rt = runtime(tmp_path, jobs=1)
        outcomes = rt.map(
            [
                Job.create(ECHO, value=1),
                Job.create(FAIL, message="boom"),
                Job.create(ECHO, value=2),
            ]
        )
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        assert "boom" in outcomes[1].error
        with pytest.raises(JobError, match="1 job"):
            payloads(outcomes)

    def test_keyboard_interrupt_drains(self, tmp_path):
        rt = runtime(tmp_path, jobs=1)
        outcomes = rt.map(
            [
                Job.create(ECHO, value=1),
                Job.create(INTERRUPT),
                Job.create(ECHO, value=2),
            ]
        )
        assert [o.status for o in outcomes] == [
            "ok",
            "interrupted",
            "interrupted",
        ]
        # The completed job survived into the cache: a re-run resumes.
        resumed = rt.map([Job.create(ECHO, value=1)])
        assert resumed[0].status == "cached"


class TestParallel:
    def test_results_in_input_order_across_workers(self, tmp_path):
        rt = runtime(tmp_path, jobs=2)
        jobs = [Job.create(ECHO, value=i) for i in range(6)]
        outcomes = rt.map(jobs)
        assert [o.payload["value"] for o in outcomes] == list(range(6))
        assert all(o.status == "ok" for o in outcomes)

    def test_jobs_actually_run_in_other_processes(self, tmp_path):
        import os

        rt = runtime(tmp_path, jobs=2, use_cache=False)
        # pid_job takes no params, so give each job a distinct dummy to
        # avoid within-call duplicate hashes hiding anything.
        outcomes = rt.map(
            [Job.create(PID), Job.create(SLOW, seconds=0.01)]
        )
        assert outcomes[0].payload["pid"] != os.getpid()

    def test_parallel_resume_from_cache(self, tmp_path):
        rt = runtime(tmp_path, jobs=2)
        jobs = [Job.create(ECHO, value=i) for i in range(4)]
        rt.map(jobs[:2])  # "interrupted" earlier run completed half
        outcomes = rt.map(jobs)
        assert [o.status for o in outcomes] == ["cached", "cached", "ok", "ok"]

    def test_worker_crash_is_retried(self, tmp_path):
        marker = tmp_path / "crash-marker"
        sink = MemorySink()
        rt = runtime(tmp_path, sink=sink, jobs=2, retries=1)
        outcomes = rt.map(
            [Job.create(CRASH_ONCE, marker_path=str(marker))]
        )
        assert outcomes[0].status == "ok"
        assert outcomes[0].payload["attempt"] == "second"
        assert outcomes[0].attempts == 2
        assert rt.stats.crash_retries == 1
        assert [e.event for e in sink.events] == [
            "queued",
            "started",
            "retried",
            "started",
            "finished",
        ]

    def test_crash_retries_are_bounded(self, tmp_path):
        rt = runtime(tmp_path, jobs=2, retries=1)
        outcomes = rt.map([Job.create(ALWAYS_CRASH)])
        assert outcomes[0].status == "failed"
        assert "exit code 23" in outcomes[0].error
        assert outcomes[0].attempts == 2  # initial + one retry

    def test_timeout_kills_overdue_job(self, tmp_path):
        rt = runtime(tmp_path, jobs=2, timeout=0.3)
        start = time.monotonic()
        outcomes = rt.map(
            [
                Job.create(SLOW, seconds=30.0),
                Job.create(ECHO, value=1),
            ]
        )
        elapsed = time.monotonic() - start
        assert elapsed < 10.0  # nowhere near the 30s sleep
        assert outcomes[0].status == "failed"
        assert "timeout" in outcomes[0].error
        assert outcomes[1].status == "ok"

    def test_keyboard_interrupt_drains_workers(self, tmp_path, monkeypatch):
        import multiprocessing

        real_collect = ExperimentRuntime._collect
        rounds = []

        def collect(self, *args):
            rounds.append(None)
            if len(rounds) == 2:
                raise KeyboardInterrupt
            real_collect(self, *args)

        monkeypatch.setattr(ExperimentRuntime, "_collect", collect)
        sink = MemorySink()
        rt = runtime(tmp_path, sink=sink, jobs=2, use_cache=False)
        outcomes = rt.map(
            [Job.create(SLOW, seconds=30.0), Job.create(SLOW, seconds=31.0)]
        )
        assert [o.status for o in outcomes] == ["interrupted"] * 2
        # Both workers were terminated and reaped, not left sleeping.
        assert multiprocessing.active_children() == []
        assert [e.event for e in sink.events].count("interrupted") == 2
        assert sink.closed  # interrupted events flushed with the bus

    def test_job_exception_in_worker_not_retried(self, tmp_path):
        sink = MemorySink()
        rt = runtime(tmp_path, sink=sink, jobs=2, retries=3)
        outcomes = rt.map([Job.create(FAIL, message="det")])
        assert outcomes[0].status == "failed"
        assert outcomes[0].attempts == 1  # exceptions are deterministic
        assert "det" in outcomes[0].error


class TestStats:
    def test_references_and_counters_accumulate(self, tmp_path):
        rt = runtime(tmp_path, jobs=1)
        rt.map([Job.create(ECHO, value=i) for i in range(3)])
        assert rt.stats.submitted == 3
        assert rt.stats.executed == 3
        assert rt.stats.references == 3  # echo_job reports 1 each
        assert rt.stats.wall_time > 0
