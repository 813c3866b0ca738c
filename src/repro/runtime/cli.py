"""``python -m repro.runtime`` — run experiments, inspect the cache.

Subcommands::

    python -m repro.runtime run --jobs 4 --scale 0.5 --only table2
    python -m repro.runtime status
    python -m repro.runtime clear-cache [--stale-only | --older-than DAYS]

``run`` is the same driver as ``python -m repro.experiments.run_all``
(every flag is forwarded); it lives here too so the runtime package is
operable on its own.
"""

from __future__ import annotations

import argparse
import sys

from repro.runtime.cache import ResultCache


def _format_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(value)} B"


def _cmd_status(args: argparse.Namespace) -> int:
    cache = ResultCache(root=args.cache_dir)
    status = cache.status()
    print(f"cache root:    {status.root}")
    print(f"code version:  {status.code_version}")
    print(
        f"current:       {status.current_entries} artifacts, "
        f"{_format_bytes(status.current_bytes)}"
    )
    print(
        f"stale:         {status.stale_entries} artifacts, "
        f"{_format_bytes(status.stale_bytes)} (older code versions)"
    )
    print(
        f"quarantined:   {status.quarantined_files} files, "
        f"{_format_bytes(status.quarantined_bytes)} (corrupt, kept for "
        "inspection)"
    )
    if status.by_function:
        print("by job function:")
        for fn, count in sorted(status.by_function.items()):
            print(f"  {fn:50s} {count}")
    return 0


def _cmd_clear_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(root=args.cache_dir)
    if args.older_than is not None:
        removed = cache.prune(older_than_days=args.older_than)
        print(
            f"removed {removed} artifacts older than "
            f"{args.older_than:g} days from {cache.root}"
        )
        return 0
    removed = cache.clear(stale_only=args.stale_only)
    what = "stale artifacts" if args.stale_only else "artifacts"
    print(f"removed {removed} {what} from {cache.root}")
    return 0


def _cmd_run(args: argparse.Namespace, passthrough: "list[str]") -> int:
    # Imported lazily: the experiments layer builds on the runtime, not
    # the other way round.
    from repro.experiments.run_all import main as run_all_main

    return run_all_main(passthrough)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run experiments through the runtime "
        "(flags forwarded to repro.experiments.run_all)",
        add_help=False,
    )
    run.set_defaults(handler=None)

    status = sub.add_parser("status", help="summarise the result cache")
    status.add_argument("--cache-dir", default=None, help="cache root override")
    status.set_defaults(handler=_cmd_status)

    clear = sub.add_parser("clear-cache", help="delete cached results")
    clear.add_argument("--cache-dir", default=None, help="cache root override")
    clear.add_argument(
        "--stale-only",
        action="store_true",
        help="only remove artifacts from older code versions",
    )
    clear.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="retention mode: only remove files (any code version: "
        "artifacts, L1-filter sidecars, trace memos) older than DAYS "
        "days, plus stale .tmp- staging files — a retention setting "
        "that bounds a long-lived .repro-cache",
    )
    clear.set_defaults(handler=_cmd_clear_cache)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run":
        return _cmd_run(argparse.Namespace(), argv[1:])
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
