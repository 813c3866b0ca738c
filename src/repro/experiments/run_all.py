"""Regenerate every table and figure: ``python -m repro.experiments.run_all``.

Options::

    python -m repro.experiments.run_all --scale 0.5 --only table2
    python -m repro.experiments.run_all --workloads 179.art 181.mcf
    python -m repro.experiments.run_all --jobs 4 --seed 7 --runlog run.jsonl

Every experiment fans its workloads out as jobs through
:mod:`repro.runtime`: ``--jobs N`` runs them over N worker processes,
finished jobs are cached in ``.repro-cache/`` (re-runs and interrupted
runs resume from it; ``--no-cache`` disables), and per-job progress
streams to stderr.  Tables are rendered from job payloads in workload
order, so parallel output is byte-identical to serial output.

The output of a full run (scale 1.0) is what EXPERIMENTS.md records.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback

from repro.experiments.figure3 import render_figure3, run_figure3_with_runtime
from repro.experiments.figures45 import render_figures45, run_figures45
from repro.experiments.table1 import render_table1, run_table1
from repro.experiments.speedups import project_speedups, render_speedups
from repro.experiments.table2 import render_table2, run_table2
from repro.experiments.workloads import WORKLOAD_NAMES
from repro.runtime.cache import CACHE_DIR_ENV
from repro.runtime.scheduler import ExperimentRuntime, runtime_from_args

_EXPERIMENTS = ("figure3", "table1", "figures45", "table2", "speedups")


def _run_experiment(
    experiment: str,
    args: argparse.Namespace,
    runtime: ExperimentRuntime,
    table2_memo: "dict[str, list]",
) -> str:
    """Produce one experiment's rendered report."""
    if experiment == "population":
        from repro.experiments.variants import render_population, run_population

        reports = []
        for name in args.workloads:
            result = run_population(
                name, scale=args.scale, seed=args.seed, runtime=runtime
            )
            reports.append(render_population(result))
        return "\n".join(reports)
    if experiment == "figure3":
        return render_figure3(run_figure3_with_runtime(runtime))
    if experiment == "table1":
        return render_table1(
            run_table1(
                args.workloads, scale=args.scale, seed=args.seed, runtime=runtime
            )
        )
    if experiment == "figures45":
        return render_figures45(
            run_figures45(
                args.workloads, scale=args.scale, seed=args.seed, runtime=runtime
            )
        )
    # table2 and speedups share the same underlying rows; memoise so one
    # invocation selecting both simulates each workload once even with
    # the cache disabled.
    if "rows" not in table2_memo:
        table2_memo["rows"] = run_table2(
            args.workloads,
            scale=args.scale,
            seed=args.seed,
            runtime=runtime,
            obs_dir=args.obs,
        )
    if experiment == "table2":
        return render_table2(table2_memo["rows"])
    if experiment == "speedups":
        return render_speedups(project_speedups(table2_memo["rows"]))
    raise ValueError(f"unknown experiment {experiment!r}")


def _finalize_obs(obs_dir: str) -> None:
    """Aggregate every per-job trace, the scheduler's run log, and
    the kernel phase spans into ``<obs_dir>/trace.json`` plus the
    machine-readable ``<obs_dir>/sweep_summary.json`` (best-effort:
    never fails the run)."""
    try:
        from repro.obs.aggregate import write_aggregate

        paths = write_aggregate(obs_dir)
        print(
            f"[obs] merged trace: {paths['trace']} — "
            "load at https://ui.perfetto.dev",
            file=sys.stderr,
        )
        print(f"[obs] sweep summary: {paths['summary']}", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - telemetry must not fail runs
        print(f"[obs] trace merge failed: {exc}", file=sys.stderr)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale")
    parser.add_argument(
        "--only",
        choices=_EXPERIMENTS,
        action="append",
        help="run only these experiments (repeatable)",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=list(WORKLOAD_NAMES),
        help="subset of workload names",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="re-derive every stochastic trace stream from this seed "
        "(default: the calibrated per-workload seeds)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = in-process serial, for debugging)",
    )
    parser.add_argument(
        "--population",
        action="store_true",
        help="run the variant population sweep instead of the paper "
        "experiments: per workload, the l1filter job simulates the L1s "
        "once and leaves the record's sidecar, then one job per chip "
        "variant reads and replays it (see docs/performance.md)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock limit in seconds (parallel mode)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--runlog",
        default=None,
        help="append structured per-job events to this JSONL file",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="journal completed jobs to this JSONL file and resume "
        "from it: a killed run restarted with the same checkpoint "
        "recomputes only the jobs that were in flight (works even "
        "with --no-cache)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-job progress lines on stderr",
    )
    parser.add_argument(
        "--obs",
        default=None,
        metavar="DIR",
        help="write observability artifacts (per-job metrics/events/"
        "Chrome traces + bridged scheduler runlog + merged trace.json) "
        "into this directory; table2 jobs run instrumented",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="dump a cProfile .prof per executed job into the --obs "
        "directory (or next to the --runlog, or ./profiles)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.population and args.only:
        parser.error(
            "--population is its own experiment pass and cannot be "
            "combined with --only"
        )
    selected = (
        ["population"] if args.population else (args.only or list(_EXPERIMENTS))
    )
    profile_dir = None
    if args.profile:
        from pathlib import Path

        if args.obs:
            profile_dir = str(Path(args.obs) / "profiles")
        elif args.runlog:
            profile_dir = str(Path(args.runlog).parent / "profiles")
        else:
            profile_dir = "profiles"
    runtime = runtime_from_args(
        jobs=args.jobs,
        timeout=args.timeout,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        runlog=args.runlog,
        quiet=args.quiet,
        profile_dir=profile_dir,
        checkpoint=args.checkpoint,
    )
    if args.obs:
        from pathlib import Path

        from repro.obs.aggregate import RUNLOG
        from repro.runtime.events import JsonlSink

        runtime.bus.add(JsonlSink(Path(args.obs) / RUNLOG))

    start = time.time()
    failures: "list[tuple[str, str]]" = []
    completed = 0
    table2_memo: "dict[str, list]" = {}
    # L1-filter sidecars, their job records and Olden trace memos live
    # under the default cache root, not the runtime's: point it at
    # --cache-dir for this run (workers inherit the environment) and
    # restore it afterwards for later in-process callers.
    saved_cache_root = os.environ.get(CACHE_DIR_ENV)
    if args.cache_dir:
        os.environ[CACHE_DIR_ENV] = args.cache_dir
    try:
        for experiment in selected:
            experiment_start = time.time()
            interrupted_before = runtime.stats.interrupted
            try:
                print(_run_experiment(experiment, args, runtime, table2_memo))
            except KeyboardInterrupt:
                failures.append((experiment, "interrupted"))
                print(f"[{experiment}: interrupted]", file=sys.stderr)
                break
            except Exception as exc:  # noqa: BLE001 - keep running the rest
                # The scheduler drains Ctrl-C into ``interrupted`` outcomes
                # rather than re-raising; a Ctrl-C must stop the whole run,
                # not fall through to the next experiment.
                if runtime.stats.interrupted > interrupted_before:
                    failures.append((experiment, "interrupted"))
                    print(f"[{experiment}: interrupted]", file=sys.stderr)
                    break
                failures.append((experiment, f"{type(exc).__name__}: {exc}"))
                traceback.print_exc()
                print(f"[{experiment}: FAILED]", file=sys.stderr)
                continue
            completed += 1
            print(
                f"[{experiment}: {time.time() - experiment_start:.1f}s]\n",
                file=sys.stderr,
            )
    finally:
        # Flush/close event sinks even on Ctrl-C so run logs (and the
        # bridged obs runlog) are never truncated.
        runtime.close()
        if saved_cache_root is None:
            os.environ.pop(CACHE_DIR_ENV, None)
        else:
            os.environ[CACHE_DIR_ENV] = saved_cache_root

    if args.obs:
        _finalize_obs(args.obs)
    if profile_dir:
        print(
            f"[profile] per-job cProfile dumps in {profile_dir}/ "
            "(inspect with python -m pstats)",
            file=sys.stderr,
        )

    stats = runtime.stats
    wall = time.time() - start
    summary = (
        f"run_all: {completed}/{len(selected)} experiments ok, "
        f"{stats.executed} jobs run, {stats.cache_hits} cache hits, "
        f"{stats.failed} job failures, {wall:.1f}s wall"
    )
    if failures:
        summary += "; FAILED: " + ", ".join(
            f"{name} ({reason})" for name, reason in failures
        )
    print(summary, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
