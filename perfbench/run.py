"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table2-cold \
        [--seed N] [--seconds S] [--trace 0|1]

Each round runs the whole workload once, closed loop, over a 2-worker
``ExperimentRuntime`` in a fresh process with a fresh cache.  Rounds
repeat until ``--seconds`` have passed and at least 3 untraced rounds
have run; each metric is the median over rounds.  ``--seed`` selects
the pinned input set (even: calibrated traces; odd: held-out traces).
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics from the traced ones.

Every job's output is checked against ``perfbench/pins.json``.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Spans of a traced
run are written to ``.perfbench/spans-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.suite import (  # noqa: E402
    END_TO_END,
    PAPER_RATIO,
    PER_LAYER,
    WORKLOADS,
    Workload,
    inputs_for,
    load_pins,
)

OUT_DIR = ROOT / ".perfbench"
#: a median over fewer rounds cannot set one slow round aside
MIN_ROUNDS = 3
#: a round normally takes 3-15 s; a stuck one is killed and counted failed
ROUND_TIMEOUT_S = 120.0


def _spawn(args: "list[str]", cwd: Path, env: dict) -> "tuple[int, str]":
    """Run one round process to completion; kill its whole process
    group afterwards, so no worker outlives it."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.round", *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        err += f"\nround killed after {ROUND_TIMEOUT_S:.0f} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, err


def _expected_jobs(workload: Workload, pins: dict) -> "list[str]":
    ids = []
    for m in workload.members:
        if workload.experiment == "sweep":
            ids += [f"{m.id}/{variant}" for variant in pins[m.id]["output"]]
        else:
            ids.append(m.id)
    if workload.obs:
        ids.append("obs/aggregate")
    return ids


def one_round(
    workload: Workload, inputs: str, pins: dict, directory: Path, traced: bool
) -> dict:
    """Run one round in fresh processes and return its measurements."""
    directory.mkdir(parents=True)
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(directory / "cache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    common = ["--workload", workload.name, "--inputs", inputs]
    try:
        t0 = time.monotonic()
        if workload.warm:
            code, err = _spawn(common + ["--prebuild"], directory, env)
            if code != 0:
                return _failed_round(workload, pins, "prebuild", err)
        code, err = _spawn(
            common + ["--t0", repr(t0)] + (["--traced"] if traced else []),
            directory,
            env,
        )
        result_path = directory / "result.json"
        if code != 0 or not result_path.is_file():
            return _failed_round(workload, pins, "round", err)
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _failed_round(workload: Workload, pins: dict, stage: str, err: str) -> dict:
    tail = err.strip().splitlines()[-1:] or ["no output"]
    print(f"[{workload.name}] {stage} process failed:\n{err}", file=sys.stderr)
    problem = f"{stage} process failed: {tail[0]}"
    return {
        "failed": True,
        "jobs": [
            {"id": job, "problems": [problem]}
            for job in _expected_jobs(workload, pins)
        ],
    }


def _median(values: "list[float]") -> float:
    return statistics.median(values) if values else 0.0


def summarize(pins: dict, plain: "list[dict]", traced: "list[dict]") -> dict:
    """Medians over the successful rounds, and job counts over all."""
    rounds = plain + traced
    jobs = [job for r in rounds for job in r["jobs"]]
    failed_jobs = [job for job in jobs if job["problems"]]
    ok_plain = [r for r in plain if not r.get("failed")]
    ok_traced = [r for r in traced if not r.get("failed")]
    refs = sum(pin["trace_refs"] * pin["passes"] for pin in pins.values())
    for r in ok_plain:
        r["refs_per_s"] = refs / r["wall_s"]
    end_to_end = {
        name: (_median([r[name] for r in ok_plain]), unit) for name, unit in END_TO_END
    }
    layers = {}
    if ok_traced:
        for name, unit in PER_LAYER:
            if name.startswith("tracing."):
                continue
            layers[name] = (_median([r["layers"][name] for r in ok_traced]), unit)
        traced_wall = _median([r["wall_s"] for r in ok_traced])
        plain_wall = end_to_end["wall_s"][0]
        layers["tracing.overhead_s"] = (traced_wall - plain_wall, "s")
        layers["tracing.overhead_x"] = (
            traced_wall / plain_wall if plain_wall else 0.0,
            "x",
        )
    return {
        "attempted": len(jobs),
        "failed": len(failed_jobs),
        "failed_jobs": failed_jobs,
        "rounds": (len(ok_plain), len(ok_traced)),
        "failed_rounds": len(rounds) - len(ok_plain) - len(ok_traced),
        "plain": ok_plain,
        "end_to_end": end_to_end,
        "layers": layers,
        "rows": next((r["rows"] for r in ok_plain), {}),
    }


def report(
    workload: Workload, seed: int, inputs: str, summary: dict, trace: bool
) -> None:
    """The human-readable table (everything before the JSON line)."""
    n_plain, n_traced = summary["rounds"]
    print(
        f"perfbench {workload.name}: seed {seed} ({inputs} inputs), "
        f"2 workers, {n_plain} untraced + {n_traced} traced rounds"
    )
    print("end-to-end, untraced rounds (median of n; each round in order):")
    for name, (value, unit) in summary["end_to_end"].items():
        values = [r[name] for r in summary["plain"]]
        print(
            f"  {name:<16} {value:>14.4f} {unit:<4} n={len(values)}  "
            + " ".join(f"{v:.4g}" for v in values)
        )
    attempted, failed = summary["attempted"], summary["failed"]
    print(
        f"  {'job_error_rate':<16} {failed / attempted:>14.4f} ratio "
        f"({failed} of {attempted} jobs failed)"
    )
    for job in summary["failed_jobs"][:10]:
        print(f"    FAILED {job['id']}: {'; '.join(job['problems'])[:300]}")
    if workload.experiment == "table2":
        print(
            "paper context (Table 2 L2-miss ratio; the model is unvalidated "
            "at these trace lengths; not a metric):"
        )
        for m in workload.members:
            row = summary["rows"].get(m.id)
            if row:
                ratio = row["l2_misses_migrating"] / row["l2_misses_baseline"]
                print(
                    f"  {m.name:<10} scale {m.scale:<5g} measured {ratio:6.3f}  "
                    f"paper {PAPER_RATIO[m.name]:5.2f}  "
                    f"migrations {row['migrations']}"
                )
    if trace:
        print("per-layer, traced rounds (median):")
        for name, (value, unit) in summary["layers"].items():
            print(f"  {name:<34} {value:>16.4f} {unit}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = inputs_for(args.seed)
    pins = load_pins()["workloads"][workload.name][inputs]

    work = OUT_DIR / f"work-{os.getpid()}"
    plain: "list[dict]" = []
    traced: "list[dict]" = []
    start = time.monotonic()
    try:
        while True:
            want_traced = bool(args.trace) and len(traced) < len(plain)
            directory = work / f"round-{len(plain) + len(traced)}"
            result = one_round(workload, inputs, pins, directory, want_traced)
            (traced if want_traced else plain).append(result)
            if result.get("failed"):
                break  # a round process that died would die again
            enough = len(plain) >= (1 if args.trace else MIN_ROUNDS)
            if enough and (traced or not args.trace):
                if time.monotonic() - start >= args.seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize(pins, plain, traced)
    if not summary["plain"] or (args.trace and not summary["layers"]):
        print("perfbench: no round completed; nothing measured", file=sys.stderr)
        return 1
    report(workload, args.seed, inputs, summary, bool(args.trace))
    if args.trace:
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(
            json.dumps([r["spans"] for r in traced if not r.get("failed")]),
            encoding="utf-8",
        )
        print(f"spans: {spans_path.relative_to(ROOT)}")
    metrics = summary["layers"] if args.trace else summary["end_to_end"]
    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0 and summary["failed_rounds"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
