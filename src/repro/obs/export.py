"""Exporters: Chrome trace-event JSON, JSONL, and terminal summaries.

The Chrome ``trace_event`` exporter makes a run *visible*: load the
emitted ``*.trace.json`` in https://ui.perfetto.dev (or
``chrome://tracing``) and the chip appears as one process with one
thread row per core — execution hops between rows at every migration,
instant markers show filter flips, R-window rollovers, eviction storms
and bus saturation, and counter tracks plot the sampled time-series
(L2 miss rate, update-bus bytes/ref, active core).

Timestamps: the simulator's clock is the *reference count*; the
exporter writes one reference as one microsecond, so "1 ms" in the
viewer is 1000 trace references.
"""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from repro.common.tables import TextTable
from repro.obs import events as ev
from repro.obs.events import SimEvent
from repro.obs.probe import ObsReport

#: events that carry their own span semantics and are drawn as core spans
_SPAN_KINDS = (ev.MIGRATION_START, ev.MIGRATION_COMMIT)


def execution_spans(
    events: "Sequence[SimEvent]", total_refs: int, initial_core: int = 0
) -> "list[tuple[int, int, int]]":
    """Reconstruct ``(core, start, end)`` execution spans from the
    migration events (the commit is the hand-off point)."""
    spans: "list[tuple[int, int, int]]" = []
    core = initial_core
    start = 0
    for event in events:
        if event.kind != ev.MIGRATION_COMMIT:
            continue
        end = event.t
        spans.append((core, start, end))
        core = int(event.args.get("to_core", core))
        start = end
    spans.append((core, start, max(total_refs, start)))
    return spans


def chrome_trace_events(
    report: ObsReport, pid: int = 1
) -> "list[dict[str, object]]":
    """One report's Chrome trace events (spans, instants, counters)."""
    meta = report.meta
    label = _report_label(meta)
    num_cores = int(meta.get("num_cores", 1))
    total_refs = int(meta.get("references", 0))
    out: "list[dict[str, object]]" = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
    ]
    for core in range(num_cores):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": core,
                "args": {"name": f"core {core}"},
            }
        )
    events_tid = num_cores
    out.append(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": events_tid,
            "args": {"name": "events"},
        }
    )
    for core, start, end in execution_spans(report.events, total_refs):
        if end <= start:
            continue
        out.append(
            {
                "name": "execute",
                "cat": "execution",
                "ph": "X",
                "pid": pid,
                "tid": core,
                "ts": start,
                "dur": end - start,
            }
        )
    for event in report.events:
        if event.kind in _SPAN_KINDS:
            continue
        out.append(
            {
                "name": event.kind,
                "cat": "sim",
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": events_tid,
                "ts": event.t,
                "args": dict(event.args),
            }
        )
    for name, metric in report.metrics.items():
        if metric.get("type") != "series":
            continue
        for t, value in metric.get("samples", []):
            out.append(
                {
                    "name": name,
                    "ph": "C",
                    "pid": pid,
                    "ts": t,
                    "args": {"value": value},
                }
            )
    return out


def chrome_trace(report: ObsReport, pid: int = 1) -> "dict[str, object]":
    """A complete, Perfetto-loadable trace document for one report."""
    return {
        "traceEvents": chrome_trace_events(report, pid=pid),
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "references (1 ref = 1 us)",
            **{k: v for k, v in report.meta.items() if _jsonable_scalar(v)},
        },
    }


def write_merged_trace(
    documents: "Iterable[dict[str, object]]", path: "str | Path"
) -> None:
    """Merge several trace documents into one written to ``path`` as
    ``json.dumps`` writes it, plus a newline; each input document's
    process ids are remapped to a disjoint range so rows never collide.

    Inputs come from independent processes whose events interleave with
    non-monotonic ``ts`` once concatenated, which trips strict trace
    importers.  The merge therefore emits metadata events first (in
    input order) and every timestamped event sorted by ``ts`` (stable,
    so same-timestamp events keep their input order), with negative
    timestamps clamped to 0.

    Each event is serialized as soon as its document's process ids are
    remapped, so a caller that reads the documents one at a time holds
    one parsed document and the merged document's text, never all the
    parsed documents.
    """
    with Path(path).open("w", encoding="utf-8") as out:
        out.write('{"traceEvents": [')
        for i, text in enumerate(_merged_events(documents)):
            if i:
                out.write(", ")
            out.write(text)
        out.write('], "displayTimeUnit": "ms"}\n')


def _merged_events(documents: "Iterable[dict[str, object]]") -> "list[str]":
    """Every event of ``documents`` in merged order (see
    :func:`write_merged_trace`), each serialized once its process id is
    remapped and its timestamp clamped."""
    metadata: "list[str]" = []
    timed: "list[tuple[float, str]]" = []
    next_pid = 1
    for document in documents:
        remap: "dict[object, int]" = {}
        for event in document.get("traceEvents", []):
            event = dict(event)
            pid = event.get("pid", 0)
            if pid not in remap:
                remap[pid] = next_pid
                next_pid += 1
            event["pid"] = remap[pid]
            if event.get("ph") == "M":
                metadata.append(json.dumps(event))
                continue
            ts = event.get("ts")
            if isinstance(ts, (int, float)) and ts < 0:
                event["ts"] = 0
            timed.append((_event_ts(event), json.dumps(event)))
    timed.sort(key=itemgetter(0))  # stable: equal ts keep input order
    return metadata + [text for _ts, text in timed]


def _event_ts(event: "dict[str, object]") -> float:
    ts = event.get("ts")
    return float(ts) if isinstance(ts, (int, float)) else 0.0


def write_events_jsonl(
    events: "Iterable[SimEvent]", path: "str | Path"
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    return path


def load_events_jsonl(path: "str | Path") -> "list[SimEvent]":
    events = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(SimEvent.from_dict(json.loads(line)))
    return events


def save_report(
    report: ObsReport, directory: "str | Path", stem: str
) -> "dict[str, Path]":
    """Write one report's artifact triple into ``directory``:
    ``<stem>.metrics.json``, ``<stem>.events.jsonl``, ``<stem>.trace.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = safe_stem(stem)
    metrics_path = directory / f"{stem}.metrics.json"
    payload = report.to_dict()
    payload["metrics"] = report.metrics
    metrics_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    events_path = write_events_jsonl(
        report.events, directory / f"{stem}.events.jsonl"
    )
    trace_path = directory / f"{stem}.trace.json"
    trace_path.write_text(
        json.dumps(chrome_trace(report)) + "\n", encoding="utf-8"
    )
    return {"metrics": metrics_path, "events": events_path, "trace": trace_path}


def safe_stem(label: str) -> str:
    """A filesystem-safe artifact stem from a job/workload label."""
    return "".join(
        c if c.isalnum() or c in "._-" else "-" for c in label
    ).strip("-.") or "obs"


def summarize_reports(
    reports: "Sequence[ObsReport]",
) -> str:
    """Terminal summary: one row per report plus an event-kind census."""
    table = TextTable(
        ["report", "refs", "migrations", "filter flips", "storms", "events"]
    )
    kind_totals: "dict[str, int]" = {}
    for report in reports:
        for kind, count in report.event_kinds().items():
            kind_totals[kind] = kind_totals.get(kind, 0) + count
        label = _report_label(report.meta)
        metrics = report.metrics
        table.add_row(
            [
                label,
                f"{int(report.meta.get('references', 0)):,}",
                _counter_value(metrics, "migrations"),
                _counter_value(metrics, "filter.flips"),
                _counter_value(metrics, "l2.eviction_storms"),
                f"{len(report.events):,}"
                + (f" (+{report.dropped_events} dropped)" if report.dropped_events else ""),
            ]
        )
    lines = [table.render(), "", "event kinds:"]
    for kind in sorted(kind_totals):
        lines.append(f"  {kind:<24s} {kind_totals[kind]:,}")
    return "\n".join(lines)


def _report_label(meta: "dict[str, object]") -> str:
    label = str(meta.get("workload", meta.get("probe", "sim")))
    run = meta.get("run")
    if run:
        label = f"{label}/{run}"
    return label


def _counter_value(metrics: "dict[str, object]", name: str) -> str:
    metric = metrics.get(name)
    if not isinstance(metric, dict) or metric.get("type") != "counter":
        return "-"
    return f"{metric['value']:,}"


def _jsonable_scalar(value: object) -> bool:
    return isinstance(value, (str, int, float, bool)) or value is None
