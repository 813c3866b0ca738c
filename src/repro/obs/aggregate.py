"""Stitch one ``run_all --obs`` directory into one sweep view.

A parallel sweep scatters telemetry over its ``--obs`` directory: every
instrumented job writes its report triple (``*.metrics.json`` /
``*.events.jsonl`` / ``*.trace.json``), the scheduler's run-log sink
appends its :class:`~repro.runtime.events.JobEvent` records to
``runtime.jsonl``, and kernel phase spans land in ``phases.jsonl``.
This module merges them into:

* **one Perfetto trace** (``trace.json``): a ``scheduler`` process
  with a root ``sweep`` span per trace id, one thread row per job
  carrying its queue-wait span, execute span, and kernel phase spans
  (all causally linked by ``trace_id``/``span_id``/``parent_span_id``
  from :mod:`repro.obs.trace_context`), plus each run's simulator rows
  as separate processes: the run's own saved ``*.trace.json``, merged
  as it is by the pid-remapping merge in :mod:`repro.obs.export` (the
  events in ``*.events.jsonl`` are never decoded to rebuild it).  The
  run traces are read one at a time, each event serialized as soon as
  its process id is remapped, and the merged document is streamed to
  disk, so the aggregate never holds more than one parsed run trace; a
  run whose trace is missing or torn is left out;
* **one machine-readable summary** (:func:`sweep_summary`): per-stage
  latency HDR histograms (queue wait, execution, each kernel phase)
  and cache-hit / retry / failure counters, with a span-linkage check
  (every span's parent must exist in the merged trace).

Scheduler and phase records carry absolute wall-clock time, so spans
from different processes land on one shared timeline; simulator rows
keep their own reference clock (1 ref = 1 us).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator

from repro.obs.export import load_events_jsonl, write_merged_trace
from repro.obs.metrics import Histogram
from repro.obs.probe import ObsReport
from repro.obs.trace_context import load_phases, load_phases_dropped
from repro.runtime.events import JobEvent, event_from_record

SUMMARY_SCHEMA = "repro.obs/sweep-summary@1"

#: the scheduler's run log inside an ``--obs`` directory
RUNLOG = "runtime.jsonl"

_TERMINAL = ("finished", "failed", "interrupted")


@dataclass
class SweepArtifacts:
    """Everything one ``--obs`` directory holds, as the aggregate needs
    it: where each run saved its Chrome trace document, the scheduler's
    run log, the kernel phase spans and how many spans the buffer's cap
    dropped."""

    run_traces: "list[Path]" = field(default_factory=list)
    job_events: "list[JobEvent]" = field(default_factory=list)
    phases: "list[dict[str, object]]" = field(default_factory=list)
    phases_dropped: int = 0


@dataclass
class JobSpan:
    """One job's reconstructed lifecycle across the sweep."""

    label: str
    job_hash: str
    trace_id: "str | None" = None
    span_id: "str | None" = None
    parent_span_id: "str | None" = None
    queued_us: "int | None" = None  #: wall clock, epoch microseconds
    started_us: "int | None" = None
    ended_us: "int | None" = None
    status: "str | None" = None
    attempts: int = 1
    retries: int = 0
    cache_hit: bool = False
    references: "int | None" = None

    def to_dict(self) -> "dict[str, object]":
        queue_wait = (
            self.started_us - self.queued_us
            if self.started_us is not None and self.queued_us is not None
            else None
        )
        execute = (
            self.ended_us - self.started_us
            if self.ended_us is not None and self.started_us is not None
            else None
        )
        return {
            "label": self.label,
            "job_hash": self.job_hash,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "cache_hit": self.cache_hit,
            "queue_wait_us": queue_wait,
            "execute_us": execute,
            "references": self.references,
        }


# -- loading -------------------------------------------------------------


def load_reports_from(directory: "str | Path") -> "list[ObsReport]":
    """Rebuild reports from the ``*.metrics.json`` / ``*.events.jsonl``
    artifact pairs in a directory."""
    directory = Path(directory)
    reports: "list[ObsReport]" = []
    for metrics_path in sorted(directory.glob("*.metrics.json")):
        report = _load_report(metrics_path)
        if report is not None:
            reports.append(report)
    return reports


def _load_report(metrics_path: Path) -> "ObsReport | None":
    try:
        data = json.loads(metrics_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    events_path = metrics_path.with_name(
        metrics_path.name.replace(".metrics.json", ".events.jsonl")
    )
    try:
        events = load_events_jsonl(events_path) if events_path.exists() else []
    except (OSError, ValueError, KeyError):
        events = []
    return ObsReport(
        meta=dict(data.get("meta", {})),
        metrics=dict(data.get("metrics", {})),
        events=events,
        dropped_events=int(data.get("dropped_events", 0)),
    )


def _run_trace(path: Path) -> "dict[str, object] | None":
    """The Chrome trace document a run saved at ``path``, or ``None``
    when it is missing or torn."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def load_runlog(path: "str | Path") -> "list[JobEvent]":
    """Read the scheduler's run log (``JsonlSink``'s records) in
    emission order, skipping torn and foreign lines."""
    events: "list[JobEvent]" = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return events
    for line in text.splitlines():
        try:
            events.append(event_from_record(json.loads(line)))
        except (ValueError, TypeError):
            continue  # the torn tail of a killed run, or not a JobEvent
    return events


def collect_artifacts(directory: "str | Path") -> SweepArtifacts:
    """Gather the run traces' paths (in name order), the run log and
    the phase spans of one ``--obs`` directory.  The merged outputs
    (``trace.json``, ``sweep_summary.json``) are never read back."""
    directory = Path(directory)
    return SweepArtifacts(
        run_traces=sorted(directory.glob("*.trace.json")),
        job_events=load_runlog(directory / RUNLOG),
        phases=load_phases(directory / "phases.jsonl"),
        phases_dropped=load_phases_dropped(directory / "phases.jsonl"),
    )


# -- job-span reconstruction ---------------------------------------------


def build_job_spans(events: "Iterable[JobEvent]") -> "list[JobSpan]":
    """Fold the scheduler's events, in emission order, into one span
    per job hash."""
    spans: "dict[str, JobSpan]" = {}
    for event in events:
        span = spans.get(event.job_hash)
        if span is None:
            span = spans[event.job_hash] = JobSpan(
                label=event.label, job_hash=event.job_hash
            )
        if event.trace_id is not None:
            span.trace_id = event.trace_id
            span.span_id = event.span_id
            span.parent_span_id = event.parent_span_id
        wall = int(event.timestamp * 1_000_000)
        span.attempts = max(span.attempts, event.attempt)
        kind = event.event
        if kind == "queued" and span.queued_us is None:
            span.queued_us = wall
        elif kind == "started" and span.started_us is None:
            span.started_us = wall
        elif kind == "retried":
            span.retries += 1
        elif kind == "cache-hit":
            span.cache_hit = True
            span.status = span.status or "cache-hit"
            span.ended_us = wall
        elif kind in _TERMINAL:
            span.status = kind
            span.ended_us = wall
            if event.references is not None:
                span.references = event.references
    return list(spans.values())


def _trace_roots(
    spans: "Iterable[JobSpan]",
    phases: "Iterable[dict[str, object]]" = (),
) -> "dict[str, str]":
    """``trace_id -> root span id`` as observed from job parents (with
    orphan phase parents never overriding a job-derived root)."""
    roots: "dict[str, str]" = {}
    for span in spans:
        if span.trace_id and span.parent_span_id:
            roots.setdefault(span.trace_id, span.parent_span_id)
    for phase in phases:
        trace_id = phase.get("trace_id")
        parent = phase.get("parent_span_id")
        if trace_id and parent and str(trace_id) not in roots:
            # A phase recorded outside any job span parents straight to
            # the sweep root.
            roots[str(trace_id)] = str(parent)
    return roots


# -- the sweep summary ---------------------------------------------------


def sweep_summary(artifacts: SweepArtifacts) -> "dict[str, object]":
    """The machine-readable sweep roll-up (``sweep_summary.json``)."""
    spans = build_job_spans(artifacts.job_events)
    roots = _trace_roots(spans, artifacts.phases)

    stages: "dict[str, Histogram]" = {}

    def stage(name: str) -> Histogram:
        hist = stages.get(name)
        if hist is None:
            hist = stages[name] = Histogram()
        return hist

    counters = {
        "jobs": len(spans),
        "finished": 0,
        "failed": 0,
        "interrupted": 0,
        "cache_hits": 0,
        "crash_retries": 0,
        "fault_recoveries": 0,
    }
    for span in spans:
        data = span.to_dict()
        if data["queue_wait_us"] is not None:
            stage("queue_wait_us").record(data["queue_wait_us"])
        if data["execute_us"] is not None:
            stage("execute_us").record(data["execute_us"])
        if span.status in counters:
            counters[span.status] += 1
        if span.cache_hit:
            counters["cache_hits"] += 1
        counters["crash_retries"] += span.retries
        # A job that was crash-retried *and* still finished is a
        # recovery the fault layer won.
        if span.retries and span.status == "finished":
            counters["fault_recoveries"] += 1
    for phase in artifacts.phases:
        dur = phase.get("dur_us")
        name = str(phase.get("name", "phase"))
        if isinstance(dur, (int, float)):
            stage(f"phase.{name}_us").record(int(dur))

    known_spans = set(roots.values())
    known_spans.update(s.span_id for s in spans if s.span_id)
    known_spans.update(
        str(p["span_id"]) for p in artifacts.phases if p.get("span_id")
    )
    unlinked = [
        s.span_id
        for s in spans
        if s.parent_span_id and s.parent_span_id not in known_spans
    ]
    unlinked.extend(
        str(p.get("span_id"))
        for p in artifacts.phases
        if p.get("parent_span_id")
        and str(p["parent_span_id"]) not in known_spans
    )

    return {
        "schema": SUMMARY_SCHEMA,
        "traces": {
            trace_id: {"root_span_id": root}
            for trace_id, root in sorted(roots.items())
        },
        "jobs": counters,
        "stages": {
            name: hist.to_dict() for name, hist in sorted(stages.items())
        },
        "spans": [span.to_dict() for span in spans],
        "phase_spans": len(artifacts.phases),
        "phase_spans_dropped": artifacts.phases_dropped,
        "reports": len(artifacts.run_traces),
        "unlinked_spans": unlinked,
    }


# -- the merged Perfetto trace -------------------------------------------


def scheduler_trace_events(
    artifacts: SweepArtifacts, pid: int = 1
) -> "list[dict[str, object]]":
    """Chrome trace events for the scheduler side of a sweep: the root
    ``sweep`` span, one thread row per job with queue-wait and execute
    spans, kernel phase spans nested on their job's row, and instants
    for retries/cache hits — all on one wall-clock timeline."""
    spans = build_job_spans(artifacts.job_events)
    roots = _trace_roots(spans, artifacts.phases)
    walls: "list[int]" = []
    for span in spans:
        walls.extend(
            w
            for w in (span.queued_us, span.started_us, span.ended_us)
            if w is not None
        )
    for phase in artifacts.phases:
        start = phase.get("start_us")
        if isinstance(start, (int, float)):
            walls.append(int(start))
            dur = phase.get("dur_us")
            if isinstance(dur, (int, float)):
                walls.append(int(start) + int(dur))
    t0 = min(walls) if walls else 0
    t_end = max(walls) if walls else 0

    out: "list[dict[str, object]]" = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "scheduler"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "sweep"},
        },
    ]
    for trace_id, root_span in sorted(roots.items()):
        out.append(
            {
                "name": "sweep",
                "cat": "runtime",
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "dur": max(1, t_end - t0),
                "args": {"trace_id": trace_id, "span_id": root_span},
            }
        )

    tids: "dict[str, int]" = {}
    span_tids: "dict[str, int]" = {}  # job span id -> tid, for phases

    def tid_for(label: str) -> int:
        if label not in tids:
            tids[label] = len(tids) + 1
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tids[label],
                    "args": {"name": label},
                }
            )
        return tids[label]

    for span in spans:
        tid = tid_for(span.label)
        if span.span_id:
            span_tids[span.span_id] = tid
        trace_args = {
            "job_hash": span.job_hash,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_span_id": span.parent_span_id,
        }
        if span.queued_us is not None and span.started_us is not None:
            out.append(
                {
                    "name": "queue-wait",
                    "cat": "runtime",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": span.queued_us - t0,
                    "dur": max(1, span.started_us - span.queued_us),
                    "args": trace_args,
                }
            )
        if span.started_us is not None and span.ended_us is not None:
            out.append(
                {
                    "name": span.status or "execute",
                    "cat": "runtime",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": span.started_us - t0,
                    "dur": max(1, span.ended_us - span.started_us),
                    "args": {**trace_args, "attempts": span.attempts},
                }
            )
        elif span.cache_hit and span.ended_us is not None:
            out.append(
                {
                    "name": "cache-hit",
                    "cat": "runtime",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": span.ended_us - t0,
                    "args": trace_args,
                }
            )
        if span.retries:
            out.append(
                {
                    "name": "retried",
                    "cat": "runtime",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": (span.started_us or span.queued_us or t0) - t0,
                    "args": {**trace_args, "retries": span.retries},
                }
            )

    orphan_tid: "int | None" = None
    for phase in artifacts.phases:
        start = phase.get("start_us")
        if not isinstance(start, (int, float)):
            continue
        parent = phase.get("parent_span_id")
        tid = span_tids.get(str(parent)) if parent is not None else None
        if tid is None:
            if orphan_tid is None:
                orphan_tid = len(tids) + 1
                tids["(phases)"] = orphan_tid
                out.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": orphan_tid,
                        "args": {"name": "(phases)"},
                    }
                )
            tid = orphan_tid
        dur = phase.get("dur_us")
        out.append(
            {
                "name": str(phase.get("name", "phase")),
                "cat": "phase",
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": int(start) - t0,
                "dur": max(1, int(dur) if isinstance(dur, (int, float)) else 1),
                "args": {
                    "trace_id": phase.get("trace_id"),
                    "span_id": phase.get("span_id"),
                    "parent_span_id": phase.get("parent_span_id"),
                    "pid": phase.get("pid"),
                },
            }
        )
    return out


def _trace_documents(
    artifacts: SweepArtifacts, merged: "list[Path]"
) -> "Iterator[dict[str, object]]":
    """The documents of the merged trace, read one at a time: the
    scheduler's, then each run trace that loads, whose path is appended
    to ``merged``."""
    if artifacts.job_events or artifacts.phases:
        yield {"traceEvents": scheduler_trace_events(artifacts)}
    for path in artifacts.run_traces:
        document = _run_trace(path)
        if document is not None:
            merged.append(path)
            yield document


def write_aggregate(directory: "str | Path") -> "dict[str, Path]":
    """Aggregate one ``--obs`` directory and write ``trace.json`` +
    ``sweep_summary.json`` into it.  A run trace that is missing or
    torn is left out of both."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    artifacts = collect_artifacts(directory)
    trace_path = directory / "trace.json"
    merged: "list[Path]" = []
    write_merged_trace(_trace_documents(artifacts, merged), trace_path)
    summary = sweep_summary(replace(artifacts, run_traces=merged))
    summary_path = directory / "sweep_summary.json"
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return {"trace": trace_path, "summary": summary_path}
