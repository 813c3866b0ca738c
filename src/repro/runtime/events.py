"""Structured per-job progress events.

The scheduler emits one :class:`JobEvent` per state change — queued,
started, cache-hit, finished, failed, retried, interrupted — carrying
the job label/hash, attempt number, duration, references simulated and
the derived refs/sec.  Sinks fan the stream out: human-readable lines
on stderr, machine-readable JSONL run logs, or in-memory capture for
tests.

The sink protocol is ``emit(event)`` plus an optional ``close()``.
Sinks that buffer (the JSONL run log) flush every event as it is
written and are explicitly closed when the run ends — including a run
ending in Ctrl-C — so an interrupted run log is never truncated mid
record.  A closed sink re-opens lazily if emitted to again.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Iterable

#: the event kinds the scheduler emits, in lifecycle order
EVENT_KINDS = (
    "queued",
    "started",
    "cache-hit",
    "finished",
    "retried",
    "failed",
    "interrupted",
)


@dataclass(frozen=True)
class JobEvent:
    """One state change of one job."""

    event: str
    label: str
    job_hash: str
    timestamp: float = field(default_factory=time.time)
    attempt: int = 1
    duration: "float | None" = None  #: seconds, on finished/failed
    references: "int | None" = None  #: trace references simulated
    error: "str | None" = None
    #: cross-process trace correlation (see repro.obs.trace_context):
    #: the sweep's trace id, this job's span, and the span it parents to
    trace_id: "str | None" = None
    span_id: "str | None" = None
    parent_span_id: "str | None" = None

    def __post_init__(self) -> None:
        if self.event not in EVENT_KINDS:
            raise ValueError(
                f"unknown event {self.event!r}; known: {EVENT_KINDS}"
            )

    @property
    def refs_per_sec(self) -> "float | None":
        if not self.references or not self.duration:
            return None
        return self.references / self.duration


def event_record(event: JobEvent) -> "dict[str, object]":
    """One event's JSONL wire shape (run logs)."""
    record = asdict(event)
    record["refs_per_sec"] = event.refs_per_sec
    return record


def event_from_record(record: "dict[str, object]") -> JobEvent:
    """The event one run-log record holds (the inverse of
    :func:`event_record`)."""
    fields = dict(record)
    fields.pop("refs_per_sec", None)
    return JobEvent(**fields)


class StderrSink:
    """Human-readable one-line-per-event progress on a stream."""

    def __init__(self, stream: "IO[str] | None" = None) -> None:
        self._stream = stream

    @property
    def stream(self) -> "IO[str]":
        # Resolved lazily so pytest's capsys replacement is honoured.
        return self._stream if self._stream is not None else sys.stderr

    def emit(self, event: JobEvent) -> None:
        if event.event == "queued":
            return  # one line per queued job is noise at fan-out scale
        parts = [f"[runtime] {event.event:<11s} {event.label}"]
        if event.duration is not None:
            parts.append(f"{event.duration:.2f}s")
        if event.references is not None:
            parts.append(f"{event.references:,} refs")
        rate = event.refs_per_sec
        if rate is not None:
            parts.append(f"{rate:,.0f} refs/s")
        if event.attempt > 1:
            parts.append(f"attempt {event.attempt}")
        if event.error:
            parts.append(f"error: {event.error}")
        print("  ".join(parts), file=self.stream)
        self.stream.flush()

    def close(self) -> None:
        try:
            self.stream.flush()
        except (OSError, ValueError):
            pass  # stream already gone (interpreter teardown)


class JsonlSink:
    """Append every event as one JSON object per line (the run log).

    The file handle is held open across events (one open per run, not
    per event) and flushed after every line, so a Ctrl-C'd run keeps
    every event that was emitted.  ``close()`` releases the handle; a
    later ``emit`` re-opens in append mode.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: "IO[str] | None" = None

    def emit(self, event: JobEvent) -> None:
        if self._handle is None:
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(event_record(event), sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class MemorySink:
    """Collect events in a list (tests, summaries)."""

    def __init__(self) -> None:
        self.events: "list[JobEvent]" = []
        self.closed = False

    def emit(self, event: JobEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        self.closed = True


class EventBus:
    """Fan one event stream out to several sinks; never let a sink
    failure kill the run (a full disk should not abort a simulation).

    Emission is serialised under a lock so one bus can be shared by
    concurrent ``ExperimentRuntime.map`` calls from several threads:
    sink lines never interleave and a JSONL run log stays one valid
    record per line.
    """

    def __init__(self, sinks: "Iterable[object]" = ()) -> None:
        self.sinks = list(sinks)
        self._lock = threading.Lock()

    def add(self, sink: object) -> None:
        with self._lock:
            self.sinks.append(sink)

    def emit(self, event: JobEvent) -> None:
        with self._lock:
            for sink in self.sinks:
                try:
                    sink.emit(event)
                except Exception as exc:  # noqa: BLE001 - diagnostics only
                    print(
                        f"[runtime] event sink {type(sink).__name__} "
                        f"failed: {exc}",
                        file=sys.stderr,
                    )

    def close(self) -> None:
        """Close every sink that supports it (same isolation as emit)."""
        with self._lock:
            for sink in self.sinks:
                close = getattr(sink, "close", None)
                if close is None:
                    continue
                try:
                    close()
                except Exception as exc:  # noqa: BLE001 - diagnostics only
                    print(
                        f"[runtime] event sink {type(sink).__name__} "
                        f"failed to close: {exc}",
                        file=sys.stderr,
                    )
