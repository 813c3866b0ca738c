"""``python -m repro.obs`` — inspect and export observability artifacts.

Subcommands, each over one ``run_all --obs`` directory::

    python -m repro.obs summarize obs-out
    python -m repro.obs export obs-out

``summarize`` prints a terminal table over every report in the
directory (one row per instrumented job), the event-kind census, the
merged chip counters, and the sweep roll-up (per-stage latency
histograms, span-linkage check).  ``export`` writes the merged
Perfetto trace ``trace.json`` and the machine-readable
``sweep_summary.json`` into the directory, as ``run_all --obs`` does at
the end of a run (see :mod:`repro.obs.aggregate`).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.aggregate import (
    collect_artifacts,
    load_reports_from,
    sweep_summary,
    write_aggregate,
)
from repro.obs.export import summarize_reports
from repro.obs.probe import ObsReport


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
    artifacts = collect_artifacts(args.directory)
    reports = load_reports_from(args.directory)
    if not reports and not artifacts.job_events:
        print(f"no obs artifacts in {args.directory}", file=sys.stderr)
        return 1
    if reports:
        print(summarize_reports(reports))
        merged = _merged_chip_counters(reports)
        if merged:
            print()
            print(merged)
    if artifacts.job_events:
        print(f"\nscheduler events: {len(artifacts.job_events):,}")
    summary = sweep_summary(artifacts)
    for line in _stage_lines(summary):
        print(line)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    paths = write_aggregate(args.directory)
    summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
    if not (summary["reports"] or summary["jobs"]["jobs"]
            or summary["phase_spans"]):
        print(f"no trace artifacts in {args.directory}", file=sys.stderr)
        return 1
    print(f"wrote {paths['trace']} — load it at https://ui.perfetto.dev")
    print(f"wrote {paths['summary']}")
    unlinked = summary["unlinked_spans"]
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
        "summarize", help="terminal summary of an --obs directory"
    )
    summarize.add_argument("directory", help="a run_all --obs directory")
    summarize.set_defaults(handler=_cmd_summarize)

    export = sub.add_parser(
        "export",
        help="write the merged trace.json and sweep_summary.json into an "
        "--obs directory",
    )
    export.add_argument("directory", help="a run_all --obs directory")
    export.set_defaults(handler=_cmd_export)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
