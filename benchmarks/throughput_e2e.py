"""End-to-end chip throughput: per-access seed path vs the batched paths.

Times one Table 2 pointer-chasing workload (Olden ``mst``) through
:class:`~repro.multicore.chip.MultiCoreChip` three ways and writes
``benchmarks/BENCH_throughput.json``::

    python benchmarks/throughput_e2e.py [--scale 0.5] [--repeats 3]

* ``per_access`` — the seed path: ``chip.run(spec.accesses())``;
* ``batched`` — ``chip.run_arrays(*spec.arrays())``, the array-native
  fast path: the L1 kernel, then the record replay below;
* ``specialized`` — the shape-specialized generated kernel
  (:mod:`repro.kernels.specialize`, what ``run_filtered`` calls) over
  a precomputed :class:`~repro.kernels.l1filter.L1FilterRecord`
  (the record build is timed separately as ``l1_filter_build_sec``; in
  a sweep it is paid once and shared by every variant).  The reported
  number is the *warm* replay (per-record precompute memoised, as in
  any sweep replaying a record more than once — the same accounting as
  ``l1_filter_build_sec``); the cold first replay is reported
  separately as ``specialized_cold_sec``.

Each timed run happens in a fresh subprocess and the configurations are
interleaved round-robin with best-of-N as the estimator, exactly like
``obs_overhead.py`` (machine weather dominates back-to-back blocks).
Every worker also prints its final ``ChipStats``; the script fails if
any path disagrees — the speedups only count because every path is
bit-identical to the seed path.

Exits non-zero when ``batched`` falls below ``--min-speedup`` or
``specialized`` falls below ``--min-specialized-speedup`` times the
per-access path (the CI gates).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOAD = "mst"

_WORKER = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
mode = sys.argv[2]
scale = float(sys.argv[3])
from repro.experiments.workloads import workload
from repro.multicore.chip import ChipConfig, MultiCoreChip
spec = workload({workload!r}, scale=scale)
arrays = spec.arrays()
build_sec = None
extra = {{}}
if mode == "specialized":
    from repro.kernels.l1filter import build_l1_filter
    start = time.perf_counter()
    record = build_l1_filter(*arrays)
    build_sec = time.perf_counter() - start
chip = MultiCoreChip(ChipConfig())
if mode == "per_access":
    start = time.perf_counter()
    chip.run(spec.accesses())
    elapsed = time.perf_counter() - start
elif mode == "batched":
    start = time.perf_counter()
    chip.run_arrays(*arrays)
    elapsed = time.perf_counter() - start
elif mode == "specialized":
    from repro.kernels.specialize import replay_chip_specialized
    start = time.perf_counter()
    replay_chip_specialized(chip, record)
    extra["cold_sec"] = time.perf_counter() - start
    elapsed = None
    for _ in range(3):
        chip = MultiCoreChip(ChipConfig())
        start = time.perf_counter()
        replay_chip_specialized(chip, record)
        warm = time.perf_counter() - start
        elapsed = warm if elapsed is None else min(elapsed, warm)
print(json.dumps({{
    "refs_per_sec": len(arrays[0]) / elapsed,
    "seconds": elapsed,
    "build_sec": build_sec,
    "stats": chip.stats.to_dict(),
    **extra,
}}))
""".format(workload=WORKLOAD)

MODES = ("per_access", "batched", "specialized")


def _run_once(mode: str, scale: float) -> "dict[str, object]":
    out = subprocess.run(
        [sys.executable, "-c", _WORKER, str(REPO_SRC), mode, str(scale)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure(scale: float, repeats: int) -> "tuple[dict[str, object], bool]":
    runs: "dict[str, list[dict[str, object]]]" = {m: [] for m in MODES}
    for _ in range(repeats):  # interleaved: one round per repeat
        for mode in MODES:
            runs[mode].append(_run_once(mode, scale))
    best = {
        mode: max(results, key=lambda r: r["refs_per_sec"])
        for mode, results in runs.items()
    }
    stats = {mode: best[mode]["stats"] for mode in MODES}
    identical = all(stats[mode] == stats["per_access"] for mode in MODES)
    base = best["per_access"]["refs_per_sec"]

    def speedup(mode: str) -> float:
        return round(best[mode]["refs_per_sec"] / base, 2)

    result = {
        "workload": f"{WORKLOAD} (Olden), scale={scale}",
        "references": stats["per_access"]["accesses"],
        "repeats": repeats,
        "estimator": "best-of-N per mode, modes interleaved",
        "refs_per_sec": {
            mode: round(r["refs_per_sec"], 1) for mode, r in best.items()
        },
        "seconds": {mode: round(r["seconds"], 3) for mode, r in best.items()},
        "l1_filter_build_sec": round(best["specialized"]["build_sec"], 3),
        "specialized_cold_sec": round(best["specialized"]["cold_sec"], 3),
        "batched_speedup": speedup("batched"),
        "specialized_speedup": speedup("specialized"),
        "stats_identical": identical,
        "chip_stats": stats["per_access"],
    }
    return result, identical


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.0,
        help="fail when batched_speedup falls below this (CI gate)",
    )
    parser.add_argument(
        "--min-specialized-speedup",
        type=float,
        default=1.0,
        help="fail when specialized_speedup falls below this (CI gate)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=str(Path(__file__).parent / "BENCH_throughput.json"),
    )
    args = parser.parse_args(argv)
    result, identical = measure(args.scale, args.repeats)
    Path(args.output).write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result, indent=2, sort_keys=True))
    if not identical:
        print("FAIL: ChipStats differ between paths", file=sys.stderr)
        return 2
    if result["batched_speedup"] < args.min_speedup:
        print(
            f"FAIL: batched speedup {result['batched_speedup']} < "
            f"{args.min_speedup}",
            file=sys.stderr,
        )
        return 1
    if result["specialized_speedup"] < args.min_specialized_speedup:
        print(
            f"FAIL: specialized speedup {result['specialized_speedup']} < "
            f"{args.min_specialized_speedup}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
