"""``python -m repro.obs watch DIR`` — a live terminal view of a sweep.

Tails the run log in an ``--obs`` directory (``runtime.jsonl``, the
bridged scheduler events) and redraws a per-job status table every
``--interval`` seconds: lifecycle state, attempts/retries, queue wait,
run time, and replay throughput.  Purely read-only — it re-reads the
append-only JSONL file, so it can watch a sweep owned by any other
process (or a finished one).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.common.tables import TextTable
from repro.obs.aggregate import JobSpan, build_job_spans, load_runlog

#: run logs a sweep directory may accumulate, in render order
RUNLOG_NAMES = ("runtime.jsonl",)

_CLEAR = "\x1b[2J\x1b[H"


def _fmt_ms(us: "int | None") -> str:
    return f"{us / 1000:,.0f}" if us is not None else "-"


def _span_row(span: JobSpan) -> "list[str]":
    data = span.to_dict()
    status = span.status or ("running" if span.started_us else "queued")
    refs_per_sec = "-"
    if span.references and data["execute_us"]:
        refs_per_sec = f"{span.references / (data['execute_us'] / 1e6):,.0f}"
    return [
        span.label,
        status,
        f"{span.attempts}" + (f" (+{span.retries} retry)" if span.retries else ""),
        _fmt_ms(data["queue_wait_us"]),
        _fmt_ms(data["execute_us"]),
        refs_per_sec,
    ]


def render_status(directory: "str | Path") -> str:
    """One frame: the per-job table plus a totals line."""
    directory = Path(directory)
    events = []
    seen = []
    for name in RUNLOG_NAMES:
        runlog = directory / name
        if runlog.is_file():
            seen.append(name)
            events.extend(load_runlog(runlog))
    if not events:
        return f"no run logs ({', '.join(RUNLOG_NAMES)}) in {directory}"
    spans = build_job_spans(events)
    table = TextTable(
        ["job", "status", "attempts", "wait ms", "run ms", "refs/s"]
    )
    for span in spans:
        table.add_row(_span_row(span))
    done = sum(1 for s in spans if s.status in ("finished", "cache-hit"))
    failed = sum(1 for s in spans if s.status == "failed")
    running = sum(
        1 for s in spans if s.status is None and s.started_us is not None
    )
    totals = (
        f"{len(spans)} jobs: {done} done, {running} running, "
        f"{failed} failed, {sum(s.retries for s in spans)} retries "
        f"[{', '.join(seen)}]"
    )
    return table.render() + "\n" + totals


def watch(
    directory: "str | Path",
    interval: float = 2.0,
    once: bool = False,
    stream=None,
) -> int:
    """Redraw ``render_status`` until interrupted (or once)."""
    stream = stream if stream is not None else sys.stdout
    while True:
        frame = render_status(directory)
        if once:
            stream.write(frame + "\n")
            return 0
        stream.write(_CLEAR + frame + "\n")
        stream.flush()
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0


def add_watch_parser(sub) -> None:
    """Wire the ``watch`` subcommand into the ``repro.obs`` CLI."""
    parser = sub.add_parser(
        "watch", help="live terminal view of a sweep's run logs"
    )
    parser.add_argument("directory", help="the --obs output directory")
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between redraws (default 2)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no screen clear)",
    )
    parser.set_defaults(
        handler=lambda args: watch(
            args.directory, interval=args.interval, once=args.once
        )
    )
