"""Event-stream ordering guarantees.

Every job's lifecycle must read ``queued -> started -> (retried ->
started)* -> finished | failed`` in the emitted stream — even when
workers crash and the scheduler retries — and the JSONL run log must
read back in that order, since same-millisecond timestamps could not
restore it.
"""

import re

from repro.obs.aggregate import load_runlog
from repro.runtime import (
    EventBus,
    ExperimentRuntime,
    Job,
    ResultCache,
    RuntimeConfig,
)
from repro.runtime.events import JsonlSink, MemorySink

ECHO = "tests.runtime.helper_jobs:echo_job"
FAIL = "tests.runtime.helper_jobs:failing_job"
CRASH_ONCE = "tests.runtime.helper_jobs:crash_once_job"
ALWAYS_CRASH = "tests.runtime.helper_jobs:always_crash_job"

#: a well-formed per-job lifecycle, as a regex over event names
LIFECYCLE = re.compile(
    r"^queued (started retried )*(started (finished|failed)|cache-hit)$"
)


def run_jobs(tmp_path, job_list, *sinks, **config):
    sink = MemorySink()
    runtime = ExperimentRuntime(
        config=RuntimeConfig(**config),
        cache=ResultCache(root=tmp_path / "cache"),
        bus=EventBus([sink, *sinks]),
    )
    runtime.map(job_list)
    runtime.close()
    return sink.events


def lifecycles(events):
    """Event-name sequence per job (by hash), in emission order."""
    per_job = {}
    for event in events:
        per_job.setdefault(event.job_hash, []).append(event.event)
    return per_job


class TestPerJobOrdering:
    def test_clean_parallel_run(self, tmp_path):
        events = run_jobs(
            tmp_path,
            [Job.create(ECHO, value=i) for i in range(6)],
            jobs=2,
            use_cache=False,
        )
        per_job = lifecycles(events)
        assert len(per_job) == 6
        for label, sequence in per_job.items():
            assert LIFECYCLE.match(" ".join(sequence)), (label, sequence)

    def test_crash_retry_keeps_order(self, tmp_path):
        events = run_jobs(
            tmp_path,
            [Job.create(CRASH_ONCE, marker_path=str(tmp_path / "marker"))]
            + [Job.create(ECHO, value=i) for i in range(3)],
            jobs=2,
            retries=1,
            use_cache=False,
        )
        per_job = lifecycles(events)
        crashed = next(s for label, s in per_job.items() if "retried" in s)
        assert crashed == ["queued", "started", "retried", "started", "finished"]
        for sequence in per_job.values():
            assert LIFECYCLE.match(" ".join(sequence)), sequence

    def test_exhausted_retries_end_in_failed(self, tmp_path):
        events = run_jobs(
            tmp_path,
            [Job.create(ALWAYS_CRASH)],
            jobs=2,
            retries=2,
            use_cache=False,
        )
        sequence = next(iter(lifecycles(events).values()))
        assert sequence == [
            "queued",
            "started",
            "retried",
            "started",
            "retried",
            "started",
            "failed",
        ]

    def test_job_exception_ends_in_failed_without_retry(self, tmp_path):
        events = run_jobs(
            tmp_path,
            [Job.create(FAIL, message="boom"), Job.create(ECHO, value=1)],
            jobs=2,
            retries=3,
            use_cache=False,
        )
        per_job = lifecycles(events)
        failed = next(s for s in per_job.values() if "failed" in s)
        assert failed == ["queued", "started", "failed"]


class TestRunlogOrdering:
    def test_runlog_keeps_crash_retry_order(self, tmp_path):
        runlog = tmp_path / "runtime.jsonl"
        emitted = run_jobs(
            tmp_path,
            [Job.create(CRASH_ONCE, marker_path=str(tmp_path / "marker"))],
            JsonlSink(runlog),
            jobs=2,
            retries=1,
            use_cache=False,
        )
        events = load_runlog(runlog)
        assert events == emitted
        assert [e.event for e in events] == [
            "queued",
            "started",
            "retried",
            "started",
            "finished",
        ]
