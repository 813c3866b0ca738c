"""``python -m repro.obs`` — inspect and export observability artifacts.

Subcommands::

    python -m repro.obs summarize obs-out/ 'more-obs/*.metrics.json'
    python -m repro.obs export obs-out/ other-obs/ -o sweep/trace.json
    python -m repro.obs watch obs-out/

``summarize`` prints a terminal table over every report found in the
given directories/globs/files (one row per instrumented job), the
event-kind census, the merged chip counters, and the sweep roll-up
(per-stage latency histograms, span-linkage check).  ``export`` merges
everything into one Perfetto-loadable trace plus the machine-readable
``sweep_summary.json`` (see :mod:`repro.obs.aggregate`).  ``watch``
tails a sweep's run logs live.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.aggregate import (
    build_sweep_trace,
    collect_artifacts,
    load_reports_from,
    sweep_summary,
)
from repro.obs.export import summarize_reports
from repro.obs.probe import ObsReport


def load_reports(directory: "str | Path") -> "list[ObsReport]":
    """Rebuild reports from one artifact directory (thin alias kept for
    existing imports; multi-input loading lives in
    :mod:`repro.obs.aggregate`)."""
    return load_reports_from(directory)


def _merged_chip_counters(reports: "list[ObsReport]") -> "str | None":
    from repro.experiments.report import counters_section
    from repro.multicore.chip import ChipStats

    stats_dicts = [
        report.meta["chip_stats"]
        for report in reports
        if isinstance(report.meta.get("chip_stats"), dict)
    ]
    if not stats_dicts:
        return None
    merged = ChipStats()
    for data in stats_dicts:
        merged = merged.merge(ChipStats.from_dict(data))
    return counters_section(
        f"chip counters (merged over {len(stats_dicts)} run(s))",
        merged.to_dict(),
    )


def _stage_lines(summary: "dict[str, object]") -> "list[str]":
    lines = []
    stages = summary.get("stages", {})
    if stages:
        lines.append("sweep stages (us):")
        for name, hist in sorted(stages.items()):
            lines.append(
                f"  {name:<24s} n={hist['count']:<5d} "
                f"p50={hist['p50']:,.0f} p99={hist['p99']:,.0f} "
                f"max={hist['max']:,}"
            )
    unlinked = summary.get("unlinked_spans", [])
    if unlinked:
        lines.append(f"UNLINKED spans (broken parents): {len(unlinked)}")
    return lines


def _cmd_summarize(args: argparse.Namespace) -> int:
    artifacts = collect_artifacts(args.inputs)
    if not artifacts.reports and not artifacts.runtime_events:
        print(
            f"no obs artifacts in {' '.join(args.inputs)}", file=sys.stderr
        )
        return 1
    if artifacts.reports:
        print(summarize_reports(artifacts.reports))
        merged = _merged_chip_counters(artifacts.reports)
        if merged:
            print()
            print(merged)
    if artifacts.runtime_events:
        print(
            f"\nscheduler events bridged: {len(artifacts.runtime_events):,}"
        )
    summary = sweep_summary(artifacts)
    for line in _stage_lines(summary):
        print(line)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    artifacts = collect_artifacts(args.inputs)
    document = build_sweep_trace(artifacts)
    if not document["traceEvents"]:
        print(f"no trace artifacts in {' '.join(args.inputs)}", file=sys.stderr)
        return 1
    first = Path(args.inputs[0])
    base = first if first.is_dir() else first.parent
    out = Path(args.output or (base / "trace.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document) + "\n", encoding="utf-8")
    summary = sweep_summary(artifacts)
    summary_path = out.with_name("sweep_summary.json")
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"wrote {out} ({len(document['traceEvents']):,} trace events) — "
        "load it at https://ui.perfetto.dev"
    )
    print(f"wrote {summary_path}")
    unlinked = summary.get("unlinked_spans", [])
    if unlinked:
        print(f"warning: {len(unlinked)} span(s) have unknown parents",
              file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser(
        "summarize", help="terminal summary of obs artifacts"
    )
    summarize.add_argument(
        "inputs",
        nargs="+",
        help="--obs directories, globs, or individual artifact files",
    )
    summarize.set_defaults(handler=_cmd_summarize)

    export = sub.add_parser(
        "export",
        help="merge all traces into one Chrome trace-event JSON "
        "(+ sweep_summary.json)",
    )
    export.add_argument(
        "inputs",
        nargs="+",
        help="--obs directories, globs, or individual artifact files",
    )
    export.add_argument(
        "-o",
        "--output",
        default=None,
        help="output path (default: <first input dir>/trace.json)",
    )
    export.set_defaults(handler=_cmd_export)

    from repro.obs.watch import add_watch_parser

    add_watch_parser(sub)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
