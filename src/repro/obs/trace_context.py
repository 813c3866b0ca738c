"""Cross-process trace context: every job becomes a causal span tree.

A sweep mints one root :class:`TraceContext` (``trace_id`` + root
``span_id``); each job's span id is *derived* from the trace id and the
job's content hash with :func:`span_for_job`, so the scheduler's
run-log events and the context a job runs under (in process or in a
worker) carry the same span id without coordinating — the id is a pure
function of what they all already know.

Propagation uses two channels:

* **process-level root** — held in a module global, which a forked
  worker inherits (job payloads are content-hashed; a trace id in
  ``params`` would split the cache);
* **thread/worker activation** — :func:`activate` installs a context
  as the *current* one for this thread (the scheduler activates the
  job's context around in-process execution, and hands each worker
  process its job's context to activate on entry), so :func:`phase`
  spans started inside kernel code parent to the right job.

:func:`phase` is the kernel-side hook: a context manager that records
a named child span (wall-clock microseconds) into a bounded in-process
buffer, drained by :func:`write_phases` into ``phases.jsonl`` next to
the other obs artifacts, with a count of the spans the buffer's cap
dropped since the last drain.  :mod:`repro.obs.aggregate` stitches job
spans and phase spans into one merged Perfetto trace.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: hard cap on buffered phase spans (drops are counted, never grown)
MAX_PHASES = 4096

#: key of the ``phases.jsonl`` line counting the spans a drain lost
DROPPED_KEY = "phase_spans_dropped"


@dataclass(frozen=True)
class TraceContext:
    """One span's identity inside a trace."""

    trace_id: str  #: 32 hex chars, shared by every span of one sweep
    span_id: str  #: 16 hex chars
    parent_span_id: "str | None" = None


def _derive(*parts: str) -> str:
    return hashlib.sha256("/".join(parts).encode("utf-8")).hexdigest()[:16]


def mint_root() -> TraceContext:
    """A new root context: random trace id, root span derived from it."""
    trace_id = os.urandom(16).hex()
    return TraceContext(trace_id=trace_id, span_id=_derive(trace_id, "sweep"))


def span_for_job(trace_id: str, job_hash: str) -> str:
    """The job's span id — deterministic, so every process that knows
    the trace id and the job's content hash derives the same id."""
    return _derive(trace_id, "job", job_hash)


def job_context(root: TraceContext, job_hash: str) -> TraceContext:
    """The job's context as a child span of the sweep root."""
    return TraceContext(
        trace_id=root.trace_id,
        span_id=span_for_job(root.trace_id, job_hash),
        parent_span_id=root.span_id,
    )


# -- process root + per-thread activation -------------------------------

_lock = threading.Lock()
_root: "TraceContext | None" = None
_active = threading.local()
_phases: "list[dict[str, object]]" = []
_phase_seq = 0
_phases_dropped = 0


def set_root(ctx: TraceContext) -> None:
    """Install the process root (a forked worker inherits it)."""
    global _root
    with _lock:
        _root = ctx


def current() -> "TraceContext | None":
    """This thread's active context, else the process root, else None."""
    ctx = getattr(_active, "ctx", None)
    return ctx if ctx is not None else _root


def ensure_current() -> TraceContext:
    """Like :func:`current`, minting and installing a root if absent."""
    ctx = current()
    if ctx is None:
        ctx = mint_root()
        set_root(ctx)
    return ctx


def activate(ctx: TraceContext) -> "TraceContext | None":
    """Make ``ctx`` this thread's current context; returns the previous
    activation for :func:`restore`."""
    prev = getattr(_active, "ctx", None)
    _active.ctx = ctx
    return prev


def restore(prev: "TraceContext | None") -> None:
    _active.ctx = prev


def reset() -> None:
    """Forget all trace state (tests)."""
    global _root, _phase_seq, _phases_dropped
    with _lock:
        _root = None
        _phases.clear()
        _phase_seq = 0
        _phases_dropped = 0
    _active.ctx = None


# -- phase spans ---------------------------------------------------------


@contextmanager
def phase(name: str, **args: object):
    """Record a named child span of the current context.

    Used by kernel code (L1-filter build/load, replay passes) — the
    span parents to whatever job context the scheduler/worker
    activated, lands in the bounded in-process buffer, and reaches
    disk when the job writes its ``phases.jsonl``.
    """
    global _phase_seq, _phases_dropped
    ctx = ensure_current()
    with _lock:
        _phase_seq += 1
        seq = _phase_seq
    span_id = _derive(ctx.span_id, "phase", name, str(seq))
    start = time.time()
    try:
        yield
    finally:
        record: "dict[str, object]" = {
            "name": name,
            "trace_id": ctx.trace_id,
            "span_id": span_id,
            "parent_span_id": ctx.span_id,
            "start_us": int(start * 1_000_000),
            "dur_us": max(1, int((time.time() - start) * 1_000_000)),
            "pid": os.getpid(),
        }
        if args:
            record["args"] = dict(args)
        with _lock:
            if len(_phases) < MAX_PHASES:
                _phases.append(record)
            else:
                _phases_dropped += 1


def _take_phases() -> "tuple[list[dict[str, object]], int]":
    """Take (and clear) every buffered phase record and the count of
    spans dropped since the last drain."""
    global _phases_dropped
    with _lock:
        records = list(_phases)
        _phases.clear()
        dropped = _phases_dropped
        _phases_dropped = 0
    return records, dropped


def drain_phases() -> "list[dict[str, object]]":
    """Take (and clear) every buffered phase record; the drop count
    restarts from 0."""
    return _take_phases()[0]


def phases_dropped() -> int:
    """Spans the cap dropped since the last drain."""
    return _phases_dropped


def write_phases(path: "str | os.PathLike") -> int:
    """Append all buffered phase records to a JSONL file, then, if the
    cap dropped any span since the last drain, one ``{DROPPED_KEY: n}``
    line; returns how many records were written.  One ``write`` per
    drain keeps concurrent workers' appends line-atomic on POSIX."""
    records, dropped = _take_phases()
    lines = [json.dumps(record, sort_keys=True) for record in records]
    if dropped:
        lines.append(json.dumps({DROPPED_KEY: dropped}))
    if not lines:
        return 0
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))
        handle.flush()
    return len(records)


def _phase_lines(path: "str | os.PathLike"):
    """The JSON objects of a ``phases.jsonl`` file, skipping torn
    lines."""
    from pathlib import Path

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(data, dict):
            yield data


def load_phases(path: "str | os.PathLike") -> "list[dict[str, object]]":
    """Read the phase records of a ``phases.jsonl`` file, skipping torn
    lines."""
    return [data for data in _phase_lines(path) if "span_id" in data]


def load_phases_dropped(path: "str | os.PathLike") -> int:
    """The spans the writers of a ``phases.jsonl`` file dropped."""
    return sum(
        data[DROPPED_KEY]
        for data in _phase_lines(path)
        if isinstance(data.get(DROPPED_KEY), int)
    )
