"""The scheduler: fan jobs out over processes, cache, retry, resume.

:class:`ExperimentRuntime` is the one entry point.  ``runtime.map(jobs)``
returns one :class:`JobOutcome` per job, **in input order** — callers
rebuild tables from payloads without caring which worker (or which past
run, via the cache) produced them, so parallel output is byte-identical
to serial output.

Execution model:

* ``jobs=1`` runs everything in-process (debuggable with pdb, no
  pickling round-trip);
* ``jobs>1`` starts one daemonised ``multiprocessing`` process per job,
  at most ``jobs`` in flight, results returned over per-job pipes.
  One-process-per-job (instead of a long-lived pool) is what makes
  per-job timeouts enforceable — an overdue job is terminated without
  poisoning other workers — and makes a crashed worker (OOM kill,
  segfaulting native code) an isolated, retryable event.
* Ctrl-C drains gracefully: running workers are terminated, completed
  jobs keep their cache artifacts, and unfinished jobs are reported as
  ``interrupted`` — re-running the same job set resumes from the cache.

One runtime instance accepts concurrent ``map`` calls from several
threads (aggregate stats are lock-guarded; each call manages its own
workers).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro import faults
from repro.obs import trace_context
from repro.runtime.cache import ResultCache
from repro.runtime.checkpoint import SweepCheckpoint
from repro.runtime.events import EventBus, JobEvent, StderrSink
from repro.runtime.health import health_counter
from repro.runtime.job import REFERENCES_KEY, Job, JobError, execute_job

#: outcome states
OK, CACHED, FAILED, INTERRUPTED = "ok", "cached", "failed", "interrupted"

#: seconds between worker liveness/timeout checks
POLL_INTERVAL = 0.05
#: base delay before a crash retry, seconds
RETRY_BACKOFF = 0.1
#: ceiling on the crash-retry backoff, seconds
RETRY_BACKOFF_CAP = 5.0
#: SIGTERM→SIGKILL escalation window for an overdue worker, seconds
KILL_GRACE = 5.0
#: how worker processes start: fork on POSIX, spawn elsewhere
START_METHOD = "fork" if os.name == "posix" else "spawn"


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs for one runtime instance."""

    jobs: int = 1  #: worker processes; 1 = in-process serial
    timeout: "float | None" = None  #: per-job wall-clock limit, seconds
    retries: int = 1  #: extra attempts after a worker *crash*
    use_cache: bool = True
    profile_dir: "str | None" = None  #: dump per-job cProfile stats here

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")


def retry_delay(job_hash: str, attempt: int) -> float:
    """Backoff before relaunching a crashed job's next attempt.

    Exponential in the attempt number, capped, with deterministic
    jitter derived from the job hash — retries of *different* jobs
    spread out (no thundering herd after a correlated crash) while the
    same job retries identically across runs.
    """
    base = min(RETRY_BACKOFF_CAP, RETRY_BACKOFF * (2 ** (attempt - 1)))
    jitter = random.Random(f"{job_hash}/{attempt}").uniform(0.5, 1.0)
    return base * jitter


@dataclass(frozen=True)
class JobOutcome:
    """Terminal state of one submitted job."""

    job: Job
    status: str  #: ok | cached | failed | interrupted
    payload: "dict[str, object] | None" = None
    duration: "float | None" = None
    error: "str | None" = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status in (OK, CACHED)


@dataclass
class RunStats:
    """Aggregate counters over every ``map`` call on one runtime."""

    submitted: int = 0
    executed: int = 0
    cache_hits: int = 0
    failed: int = 0
    interrupted: int = 0
    crash_retries: int = 0
    references: int = 0
    wall_time: float = 0.0

    def absorb(self, outcome: JobOutcome) -> None:
        if outcome.status == CACHED:
            self.cache_hits += 1
        elif outcome.status == OK:
            self.executed += 1
        elif outcome.status == FAILED:
            self.failed += 1
        elif outcome.status == INTERRUPTED:
            self.interrupted += 1
        if outcome.payload is not None:
            refs = outcome.payload.get(REFERENCES_KEY)
            if isinstance(refs, int):
                self.references += refs


def failed_outcomes(outcomes: "Sequence[JobOutcome]") -> "list[JobOutcome]":
    return [o for o in outcomes if not o.ok]


def payloads(outcomes: "Sequence[JobOutcome]") -> "list[dict[str, object]]":
    """Unwrap payloads, raising :class:`JobError` if anything failed."""
    bad = failed_outcomes(outcomes)
    if bad:
        summary = "; ".join(
            f"{o.job.name}: {o.status}"
            + (f" ({o.error})" if o.error else "")
            for o in bad[:5]
        )
        raise JobError(f"{len(bad)} job(s) did not complete: {summary}")
    return [o.payload for o in outcomes]  # type: ignore[misc]


def _execute(job: Job, profile_dir: "str | None"):
    """Run one job, optionally under cProfile.

    With ``profile_dir`` set, the job function runs inside a profiler
    and the stats land in ``<profile_dir>/<label>-<hash12>.prof``
    (loadable with ``python -m pstats`` or snakeviz).  The dump happens
    even when the job raises — a slow *failing* job is exactly the one
    worth profiling.
    """
    faults.fire("runtime.job.start")
    if profile_dir is None:
        return execute_job(job)
    import cProfile
    import re
    from pathlib import Path

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return execute_job(job)
    finally:
        profiler.disable()
        safe = re.sub(r"[^A-Za-z0-9._-]+", "-", job.name) or "job"
        path = Path(profile_dir) / f"{safe}-{job.hash[:12]}.prof"
        path.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(str(path))


def _worker_main(
    job: Job,
    conn,
    profile_dir: "str | None" = None,
    trace: "trace_context.TraceContext | None" = None,
) -> None:
    """Worker-process entry: run the job, ship the result, exit."""
    try:
        faults.fire("runtime.worker.start")
        if trace is not None:
            # Phase spans the job records parent to its own span.
            trace_context.activate(trace)
        payload, duration = _execute(job, profile_dir)
        conn.send(("ok", payload, duration))
    except BaseException as exc:  # noqa: BLE001 - must cross the pipe
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


@dataclass
class _Running:
    index: int
    attempt: int
    process: multiprocessing.Process
    conn: "multiprocessing.connection.Connection"
    started: float = field(default_factory=time.monotonic)


class ExperimentRuntime:
    """Schedule jobs over the cache and (optionally) worker processes."""

    def __init__(
        self,
        config: "RuntimeConfig | None" = None,
        cache: "ResultCache | None" = None,
        bus: "EventBus | None" = None,
        checkpoint: "SweepCheckpoint | None" = None,
    ) -> None:
        self.config = config or RuntimeConfig()
        self.cache = cache if cache is not None else ResultCache()
        self.bus = bus if bus is not None else EventBus([StderrSink()])
        self.checkpoint = checkpoint
        self.stats = RunStats()
        self._stats_lock = threading.Lock()
        self._trace_root: "trace_context.TraceContext | None" = None

    # -- public API -----------------------------------------------------

    def map(self, jobs: "Sequence[Job]") -> "list[JobOutcome]":
        """Run every job; outcomes align with the input order."""
        jobs = list(jobs)
        with self._stats_lock:
            self.stats.submitted += len(jobs)
        start = time.monotonic()
        for job in jobs:
            self._emit("queued", job)
        try:
            # jobs=1 is strictly in-process (debuggable, no pickling);
            # jobs>1 always isolates in workers — even a single job —
            # so crash containment and timeouts hold uniformly.
            if self.config.jobs <= 1:
                outcomes = self._run_serial(jobs)
            else:
                outcomes = self._run_parallel(jobs)
        finally:
            with self._stats_lock:
                self.stats.wall_time += time.monotonic() - start
        with self._stats_lock:
            for outcome in outcomes:
                self.stats.absorb(outcome)
        return outcomes

    def run_one(self, job: Job) -> JobOutcome:
        return self.map([job])[0]

    def close(self) -> None:
        """Flush and close every event sink (idempotent; sinks re-open
        lazily if the runtime is used again) and the checkpoint."""
        self.bus.close()
        if self.checkpoint is not None:
            self.checkpoint.close()

    # -- shared helpers -------------------------------------------------

    def _root(self) -> "trace_context.TraceContext":
        """The sweep's root span: adopted from whoever activated a
        context first (the calling thread, an enclosing sweep via the
        environment), minted here otherwise.  Captured once so serial
        job activations never re-parent later events."""
        if self._trace_root is None:
            self._trace_root = trace_context.ensure_current()
        return self._trace_root

    def _job_trace(self, job: Job) -> "trace_context.TraceContext":
        return trace_context.job_context(self._root(), job.hash)

    def _emit(self, kind: str, job: Job, **extra: object) -> None:
        root = self._root()
        self.bus.emit(
            JobEvent(
                event=kind,
                label=job.name,
                job_hash=job.hash,
                trace_id=root.trace_id,
                span_id=trace_context.span_for_job(root.trace_id, job.hash),
                parent_span_id=root.span_id,
                **extra,
            )
        )

    def _cached_outcome(self, job: Job) -> "JobOutcome | None":
        # The sweep checkpoint is consulted first: it works even with
        # the cache disabled, which is what bounds a killed driver's
        # re-run to only the jobs that were in flight.
        if self.checkpoint is not None:
            payload = self.checkpoint.get(job)
            if payload is not None:
                health_counter("recovery.checkpoint.hits").inc()
                self._emit(
                    "cache-hit", job, references=_references_of(payload)
                )
                return JobOutcome(job=job, status=CACHED, payload=payload)
        if not self.config.use_cache:
            return None
        payload = self.cache.get(job)
        if payload is None:
            return None
        self._emit(
            "cache-hit", job, references=_references_of(payload)
        )
        return JobOutcome(job=job, status=CACHED, payload=payload)

    def _finish(
        self, job: Job, payload: "dict[str, object]", duration: float, attempt: int
    ) -> JobOutcome:
        if self.config.use_cache:
            self.cache.put(job, payload, duration=duration)
        if self.checkpoint is not None:
            self.checkpoint.record(job, payload, duration=duration)
        self._emit(
            "finished",
            job,
            duration=duration,
            references=_references_of(payload),
            attempt=attempt,
        )
        return JobOutcome(
            job=job,
            status=OK,
            payload=payload,
            duration=duration,
            attempts=attempt,
        )

    def _fail(
        self, job: Job, error: str, attempt: int, duration: "float | None" = None
    ) -> JobOutcome:
        self._emit(
            "failed", job, error=error, attempt=attempt, duration=duration
        )
        return JobOutcome(
            job=job,
            status=FAILED,
            error=error,
            attempts=attempt,
            duration=duration,
        )

    # -- serial mode ----------------------------------------------------

    def _run_serial(self, jobs: "Sequence[Job]") -> "list[JobOutcome]":
        outcomes: "list[JobOutcome]" = []
        interrupted_at: "int | None" = None
        for i, job in enumerate(jobs):
            cached = self._cached_outcome(job)
            if cached is not None:
                outcomes.append(cached)
                continue
            self._emit("started", job)
            # The job's span is this thread's context while it runs, so
            # phase spans recorded inside kernels parent to this job.
            prev_trace = trace_context.activate(self._job_trace(job))
            try:
                try:
                    payload, duration = _execute(job, self.config.profile_dir)
                finally:
                    trace_context.restore(prev_trace)
            except KeyboardInterrupt:
                interrupted_at = i
                break
            except Exception as exc:  # noqa: BLE001 - job isolation
                outcomes.append(
                    self._fail(job, f"{type(exc).__name__}: {exc}", attempt=1)
                )
                continue
            outcomes.append(self._finish(job, payload, duration, attempt=1))
        if interrupted_at is not None:
            for job in jobs[interrupted_at:]:
                self._emit("interrupted", job)
                outcomes.append(JobOutcome(job=job, status=INTERRUPTED))
            self.bus.close()  # interrupted events must reach disk
        return outcomes

    # -- parallel mode --------------------------------------------------

    def _run_parallel(self, jobs: "Sequence[Job]") -> "list[JobOutcome]":
        context = multiprocessing.get_context(START_METHOD)
        outcomes: "list[JobOutcome | None]" = [None] * len(jobs)
        # (index, attempt, not_before): retried jobs carry a backoff
        # deadline; fresh jobs are launchable immediately.
        pending: "deque[tuple[int, int, float]]" = deque()
        for i, job in enumerate(jobs):
            cached = self._cached_outcome(job)
            if cached is not None:
                outcomes[i] = cached
            else:
                pending.append((i, 1, 0.0))
        running: "list[_Running]" = []
        try:
            while pending or running:
                self._launch_ready(context, jobs, pending, running)
                self._collect(jobs, outcomes, pending, running)
        except KeyboardInterrupt:
            self._drain_interrupted(jobs, outcomes, pending, running)
        return [
            outcome
            if outcome is not None
            else JobOutcome(job=job, status=INTERRUPTED)
            for job, outcome in zip(jobs, outcomes)
        ]

    def _launch_ready(
        self,
        context,
        jobs: "Sequence[Job]",
        pending: "deque[tuple[int, int, float]]",
        running: "list[_Running]",
    ) -> None:
        """Fill free worker slots with pending jobs whose backoff (if
        any) has expired; jobs still backing off rotate to the tail so
        they never block launchable work behind them."""
        now = time.monotonic()
        launched = True
        while launched and pending and len(running) < self.config.jobs:
            launched = False
            for _ in range(len(pending)):
                index, attempt, not_before = pending.popleft()
                if not_before <= now:
                    running.append(
                        self._launch(context, jobs[index], index, attempt)
                    )
                    launched = True
                    break
                pending.append((index, attempt, not_before))

    def _drain_interrupted(
        self,
        jobs: "Sequence[Job]",
        outcomes: "list[JobOutcome | None]",
        pending: "deque[tuple[int, int, float]]",
        running: "list[_Running]",
    ) -> None:
        """Terminate live workers and mark everything unfinished
        ``interrupted`` (the Ctrl-C drain)."""
        self._terminate_all(running)
        for slot in running:
            self._emit("interrupted", jobs[slot.index])
            outcomes[slot.index] = JobOutcome(
                job=jobs[slot.index],
                status=INTERRUPTED,
                attempts=slot.attempt,
            )
        for index, attempt, _not_before in pending:
            self._emit("interrupted", jobs[index])
            outcomes[index] = JobOutcome(
                job=jobs[index], status=INTERRUPTED, attempts=attempt
            )
        running.clear()
        pending.clear()
        # The run is over: make sure the interrupted events (and
        # everything before them) are on disk, not in a buffer.
        self.bus.close()

    def _launch(self, context, job: Job, index: int, attempt: int) -> _Running:
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_main,
            args=(job, sender, self.config.profile_dir, self._job_trace(job)),
            daemon=True,
        )
        process.start()
        sender.close()  # parent keeps only the read end
        if faults.armed("runtime.worker.kill"):
            # Scripted external SIGKILL (the OOM-killer stand-in): the
            # parent counts launches, so "kill the Nth worker launch"
            # fires exactly once and the crash-retry path recovers.
            process.kill()
        self._emit("started", job, attempt=attempt)
        return _Running(
            index=index, attempt=attempt, process=process, conn=receiver
        )

    def _collect(
        self,
        jobs: "Sequence[Job]",
        outcomes: "list[JobOutcome | None]",
        pending: "deque[tuple[int, int, float]]",
        running: "list[_Running]",
    ) -> None:
        """One poll round: reap results, crashes, and timeouts."""
        if running:
            ready = multiprocessing.connection.wait(
                [slot.conn for slot in running],
                timeout=POLL_INTERVAL,
            )
        else:
            # Everything pending is backing off: idle one poll tick.
            time.sleep(POLL_INTERVAL)
            ready = []
        ready_set = set(ready)
        now = time.monotonic()
        still_running: "list[_Running]" = []
        for slot in running:
            job = jobs[slot.index]
            if slot.conn in ready_set:
                outcome = self._reap(job, slot, pending)
                if outcome is not None:
                    outcomes[slot.index] = outcome
            elif (
                self.config.timeout is not None
                and now - slot.started > self.config.timeout
            ):
                # The hung-worker watchdog: _kill escalates SIGTERM →
                # SIGKILL if the worker ignores the polite signal.
                health_counter("fault.worker.timeout").inc()
                self._kill(slot)
                outcomes[slot.index] = self._fail(
                    job,
                    f"timeout after {self.config.timeout:.1f}s",
                    attempt=slot.attempt,
                    duration=now - slot.started,
                )
            else:
                still_running.append(slot)
        running[:] = still_running

    def _reap(
        self,
        job: Job,
        slot: _Running,
        pending: "deque[tuple[int, int, float]]",
    ) -> "JobOutcome | None":
        """A worker's pipe is readable: result, error, or crash (EOF).

        Returns ``None`` when the job was requeued (crash retry).
        """
        try:
            message = slot.conn.recv()
        except (EOFError, OSError):
            message = None
        self._kill(slot)  # reap the process either way
        if message is None:
            exit_code = slot.process.exitcode
            health_counter("fault.worker.crash").inc()
            if slot.attempt <= self.config.retries:
                with self._stats_lock:
                    self.stats.crash_retries += 1
                health_counter("recovery.worker.crash_retried").inc()
                self._emit(
                    "retried",
                    job,
                    attempt=slot.attempt,
                    error=f"worker died (exit code {exit_code})",
                )
                not_before = time.monotonic() + retry_delay(
                    job.hash, slot.attempt
                )
                pending.append((slot.index, slot.attempt + 1, not_before))
                return None
            return self._fail(
                job,
                f"worker died (exit code {exit_code}), retries exhausted",
                attempt=slot.attempt,
            )
        if message[0] == "ok":
            _, payload, duration = message
            return self._finish(job, payload, duration, attempt=slot.attempt)
        return self._fail(job, message[1], attempt=slot.attempt)

    def _kill(self, slot: _Running) -> None:
        """Reap one worker, escalating politely: close the pipe,
        SIGTERM, wait :data:`KILL_GRACE`, then SIGKILL a worker that
        ignored the termination (stuck in native code, masked
        signals) — a hung worker can slow a sweep down, never wedge
        it."""
        slot.conn.close()
        process = slot.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=KILL_GRACE)
            if process.is_alive():
                health_counter("fault.worker.kill_escalated").inc()
                process.kill()
                process.join(timeout=5.0)
        else:
            process.join(timeout=5.0)

    def _terminate_all(self, running: "Sequence[_Running]") -> None:
        for slot in running:
            self._kill(slot)


def _references_of(payload: "dict[str, object]") -> "int | None":
    refs = payload.get(REFERENCES_KEY)
    return refs if isinstance(refs, int) else None


def runtime_from_args(
    jobs: int = 1,
    timeout: "float | None" = None,
    retries: int = 1,
    cache_dir: "str | None" = None,
    no_cache: bool = False,
    runlog: "str | None" = None,
    quiet: bool = False,
    profile_dir: "str | None" = None,
    checkpoint: "str | None" = None,
) -> ExperimentRuntime:
    """Build a runtime from CLI-ish options (shared by both CLIs)."""
    from repro.runtime.events import JsonlSink

    config = RuntimeConfig(
        jobs=jobs, timeout=timeout, retries=retries, profile_dir=profile_dir
    )
    if no_cache:
        config = replace(config, use_cache=False)
    sinks: "list[object]" = [] if quiet else [StderrSink()]
    if runlog:
        sinks.append(JsonlSink(runlog))
    return ExperimentRuntime(
        config=config,
        cache=ResultCache(root=cache_dir) if cache_dir else ResultCache(),
        bus=EventBus(sinks),
        checkpoint=SweepCheckpoint(checkpoint) if checkpoint else None,
    )
