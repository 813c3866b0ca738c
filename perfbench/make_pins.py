"""Regenerate the pinned outputs: ``python3 perfbench/make_pins.py``.

Runs every member of every workload serially, in this process, at both
pinned input sets, through the experiments' own job functions with
telemetry off, and writes ``perfbench/pins.json``.  It refuses to write
pins when a member lost the property it was chosen for, or when a
telemetry-on Table 2 row differs from the telemetry-off one.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.suite import (  # noqa: E402
    INPUT_SEEDS,
    PINS_PATH,
    WORKLOADS,
    Member,
    Workload,
    compare,
    profile_output,
    property_problems,
    sweep_output,
    table2_output,
)


class PinError(RuntimeError):
    """A member cannot be pinned as it stands."""


def pin_member(
    workload: Workload, member: Member, seed: "int | None", obs_dir: Path
) -> dict:
    """One member's pin: its outputs, and the trace length and record
    count the benchmark's rates are computed from."""
    from repro.experiments.workloads import workload as spec_of
    from repro.kernels.l1filter import ensure_l1_filter

    name, scale = member.name, member.scale
    records = 0
    if workload.experiment == "table2":
        from repro.experiments.table2 import table2_job

        output = table2_output(table2_job(name, scale=scale, seed=seed))
        if workload.obs:
            observed = table2_job(name, scale=scale, seed=seed, obs_dir=str(obs_dir))
            problems = compare(output, table2_output(observed), "telemetry-on ")
            if problems:
                raise PinError(f"{member.id}: " + "; ".join(problems))
        passes = 2
    elif workload.experiment == "sweep":
        from repro.experiments.variants import run_population

        rows = run_population(name, scale=scale, seed=seed).rows
        output = sweep_output(rows)
        passes = len(rows)
    else:
        from repro.experiments.figures45 import figures45_job

        output = profile_output(figures45_job(name, scale=scale, seed=seed))
        passes = 1
    if workload.experiment == "profiles":
        trace_refs = len(spec_of(name, scale=scale, seed=seed).arrays()[0])
    else:
        record, _cached = ensure_l1_filter(name, scale=scale, seed=seed)
        trace_refs, records = record.accesses, record.records
    problems = property_problems(workload, member, output)
    if problems:
        raise PinError("; ".join(problems))
    return {
        "trace_refs": trace_refs,
        "records": records,
        "passes": passes,
        "output": output,
    }


def pin_workload(workload: Workload, seed: "int | None", work_dir: Path) -> dict:
    """Pins of every member of ``workload`` at one input set, computed
    over a fresh cache under ``work_dir``."""
    cache = Path(tempfile.mkdtemp(dir=work_dir))
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache / "cache")
    try:
        return {
            member.id: pin_member(workload, member, seed, cache / "obs")
            for member in workload.members
        }
    finally:
        if previous is None:
            del os.environ["REPRO_CACHE_DIR"]
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
        shutil.rmtree(cache, ignore_errors=True)


def main() -> int:
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    pins = {"inputs": INPUT_SEEDS, "workloads": {}}
    try:
        for workload in WORKLOADS.values():
            pins["workloads"][workload.name] = {
                inputs: pin_workload(workload, seed, work_dir)
                for inputs, seed in INPUT_SEEDS.items()
            }
            print(f"pinned {workload.name}", file=sys.stderr)
    except PinError as exc:
        print(f"make_pins: {exc}", file=sys.stderr)
        return 1
    PINS_PATH.write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {PINS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
