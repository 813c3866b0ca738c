"""One benchmark round, run in a fresh process by ``run.py``::

    python -m perfbench.round --workload NAME --inputs default --t0 T [--traced]
    python -m perfbench.round --workload NAME --inputs default --prebuild

The process runs with ``REPRO_CACHE_DIR`` pointing at the round's own
fresh cache, so every artifact the program writes — results, L1-filter
sidecars, Olden trace memos, shared-memory manifests — lands there.
``--prebuild`` builds a warm workload's L1-filter records and exits;
it runs in its own process so the timed process's peak RSS covers only
the timed region.

Set-up is everything from ``--t0`` (taken by ``run.py`` before it
started the round's first process) to the first job submitted:
interpreter start, imports, ``code_fingerprint()``, runtime
construction and, on warm workloads, the record prebuild.  The timed
region runs from the first job submitted to the last result checked.
The round's measurements go to ``result.json`` in the working
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from perfbench.suite import (
    INPUT_SEEDS,
    LAYER_SPANS,
    WORKLOADS,
    Member,
    Workload,
    compare,
    load_pins,
    profile_output,
    property_problems,
    sweep_output,
    table2_output,
)
from perfbench.traced import SpanLog, durations, self_times

#: worker processes; the workloads are sized for two
WORKERS = 2

REBUILT = "record was rebuilt in the timed region"


def _cpu_and_rss() -> "tuple[float, float]":
    """CPU seconds of this process and its reaped workers, and the
    largest resident set (MB) of either."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime
    return cpu, max(own.ru_maxrss, workers.ru_maxrss) / 1024.0


def _runtime(cache_root: Path, sinks: list):
    from repro.runtime import EventBus, ExperimentRuntime, ResultCache, RuntimeConfig

    return ExperimentRuntime(
        RuntimeConfig(jobs=WORKERS),
        cache=ResultCache(root=cache_root),
        bus=EventBus(sinks),
    )


def prebuild(workload: Workload, seed: "int | None", cache_root: Path) -> None:
    """Build every member's L1-filter record into ``cache_root``."""
    from repro.kernels.l1filter import l1_filter_job_for
    from repro.runtime import payloads

    runtime = _runtime(cache_root, [])
    try:
        payloads(
            runtime.map(
                [
                    l1_filter_job_for(m.name, scale=m.scale, seed=seed)
                    for m in workload.members
                ]
            )
        )
    finally:
        runtime.close()


class EventLog:
    """``EventBus`` sink keeping every job event in memory."""

    def __init__(self) -> None:
        self.events: "list[tuple[str, str, float, float | None]]" = []

    def emit(self, event) -> None:
        self.events.append(
            (event.event, event.label, event.timestamp, event.duration)
        )


def _outcome_result(outcome, to_output) -> dict:
    if not outcome.ok:
        return {"error": f"job {outcome.status}: {outcome.error}"}
    return {"output": to_output(outcome.payload)}


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


# -- the workload, through the experiments' public entry points ----------


def run_plain(workload: Workload, seed, runtime, obs_dir) -> dict:
    """Run the workload through the experiments' public entry points;
    returns ``{member id: {"output": ...} | {"error": ...}}``."""
    from repro.runtime import JobError

    results: dict = {}
    members = workload.members
    if workload.experiment == "sweep":
        from repro.experiments.variants import run_population

        for m in members:
            try:
                population = run_population(
                    m.name, scale=m.scale, seed=seed, runtime=runtime
                )
            except JobError as exc:
                results[m.id] = _error(exc)
                continue
            results[m.id] = {
                "output": sweep_output(population.rows),
                "population": _population_stats(population),
            }
        return results
    if workload.experiment == "table2":
        from repro.experiments.table2 import table2_jobs

        jobs = [
            table2_jobs(
                [m.name],
                scale=m.scale,
                seed=seed,
                obs_dir=None if obs_dir is None else str(obs_dir),
            )[0]
            for m in members
        ]
        to_output = table2_output
    else:
        from repro.experiments.figures45 import figures45_jobs

        jobs = [
            figures45_jobs([m.name], scale=m.scale, seed=seed)[0] for m in members
        ]
        to_output = profile_output
    for m, outcome in zip(members, runtime.map(jobs)):
        results[m.id] = _outcome_result(outcome, to_output)
    if obs_dir is not None:
        results["obs/aggregate"] = _aggregate(runtime, obs_dir)
    return results


def _population_stats(population) -> dict:
    return {
        "record_loads": population.shared_record_loads,
        "records_shared": sum(
            count
            for source, count in population.record_sources.items()
            if source != "sidecar"
        ),
    }


def _aggregate(runtime, obs_dir: Path) -> dict:
    """``run_all --obs``'s last step: close the runtime's sinks, then
    merge every artifact into ``trace.json`` + ``sweep_summary.json``."""
    from repro.obs.aggregate import write_aggregate

    runtime.close()
    try:
        write_aggregate(obs_dir)
    except Exception as exc:  # noqa: BLE001 - reported as a failed job
        return _error(exc)
    return {"output": {}}


# -- the same work, layer by layer ----------------------------------------


def run_traced(
    workload: Workload, seed, runtime, obs_dir, log: SpanLog, events: EventLog
) -> dict:
    """The traced twin of :func:`run_plain`: the same work, with a span
    around every layer call (see :mod:`perfbench.traced`)."""
    from repro.runtime import Job, JobError

    results: dict = {}
    members = workload.members
    if workload.experiment == "sweep":
        from repro.experiments.variants import run_population

        for m in members:
            with log.span("job", "workload", m.id, span_id=m.id) as job:
                with log.span("sweep.population", job, m.id) as population_span:
                    mark = len(events.events)
                    try:
                        population = run_population(
                            m.name, scale=m.scale, seed=seed, runtime=runtime
                        )
                    except JobError as exc:
                        population = None
                        results[m.id] = _error(exc)
            # Each variant job's execution, as the runtime measured it.
            for kind, label, stamp, duration in events.events[mark:]:
                if kind == "finished" and duration is not None:
                    variant = label.rsplit("/", 1)[-1]
                    log.record(
                        "baseline.replay" if variant == "baseline" else "chip.replay",
                        stamp - duration,
                        stamp,
                        population_span,
                        m.id,
                    )
            if population is not None:
                results[m.id] = {
                    "output": sweep_output(population.rows),
                    "population": _population_stats(population),
                }
        return results
    if workload.experiment == "table2":
        fn = "perfbench.traced:table2_traced_job"
        extra = {"warm": workload.warm}
        if obs_dir is not None:
            extra["obs_dir"] = str(obs_dir)
    else:
        fn = "perfbench.traced:profiles_traced_job"
        extra = {}
    jobs = [
        Job.create(
            fn,
            label=f"traced/{workload.name}/{m.id}",
            name=m.name,
            scale=m.scale,
            seed=seed,
            **extra,
        )
        for m in members
    ]
    for m, outcome in zip(members, runtime.map(jobs)):
        if outcome.ok:
            log.spans.extend(outcome.payload["spans"])
            results[m.id] = outcome.payload
        else:
            results[m.id] = {"error": f"job {outcome.status}: {outcome.error}"}
    if obs_dir is not None:
        with log.span("obs.aggregate", "workload"):
            results["obs/aggregate"] = _aggregate(runtime, obs_dir)
    return results


# -- checks -----------------------------------------------------------------


def check_jobs(workload: Workload, pins: dict, results: dict, obs_dir) -> "list[dict]":
    """One entry per job attempted, with every problem found in its
    output: a failure, a counter differing from the pins, or a member
    that lost the property it was chosen for."""
    jobs = []
    for m in workload.members:
        result = results.get(m.id, {"error": "not run"})
        pin = pins[m.id]["output"]
        error = result.get("error")
        output = result.get("output")
        if workload.experiment == "sweep":
            for variant, pinned in pin.items():
                if error:
                    problems = [error]
                else:
                    problems = compare(pinned, output.get(variant), f"{variant}.")
                    if variant == "migration":
                        problems += property_problems(workload, m, output)
                jobs.append({"id": f"{m.id}/{variant}", "problems": problems})
            continue
        if error:
            problems = [error]
        else:
            problems = compare(pin, output) + property_problems(workload, m, output)
            if "plain_output" in result:
                problems += compare(pin, result["plain_output"], "telemetry-off ")
        if obs_dir is not None:
            problems += _artifact_problems(obs_dir, m)
        jobs.append({"id": m.id, "problems": problems})
    if obs_dir is not None:
        result = results.get("obs/aggregate", {"error": "not run"})
        problems = [result["error"]] if "error" in result else []
        for name in ("trace.json", "sweep_summary.json"):
            if not (obs_dir / name).is_file():
                problems.append(f"aggregate wrote no {name}")
        jobs.append({"id": "obs/aggregate", "problems": problems})
    return jobs


def _artifact_problems(obs_dir: Path, member: Member) -> "list[str]":
    from repro.obs.export import safe_stem

    return [
        f"{member.id}: no {run} probe artifacts"
        for run in ("baseline", "chip")
        if not (
            obs_dir / f"{safe_stem(f'table2-{member.name}-{run}')}.metrics.json"
        ).is_file()
    ]


def _npz_files(cache_root: Path) -> "dict[str, tuple[int, int, int]]":
    """Identity of every npz under the cache: L1-filter sidecars and
    Olden trace memos.  A rebuild replaces the file, which changes it."""
    files = {}
    for path in sorted(cache_root.rglob("*.npz")):
        st = path.stat()
        files[str(path.relative_to(cache_root))] = (
            st.st_ino,
            st.st_mtime_ns,
            st.st_size,
        )
    return files


def cache_problems(
    workload: Workload,
    seed,
    cache_root: Path,
    existed: bool,
    before: "dict | None",
) -> "list[tuple[str | None, str]]":
    """``(member id or None for every job, problem)`` for each way the
    round was not as cold or as warm as its workload claims.

    Cold: the round's cache did not exist beforehand, and afterwards
    holds every member's record and Olden trace memo.  Warm: every
    prebuilt record is still the same file — loaded, not rebuilt — and
    no trace memo or record was written.  Either way nothing may be
    written to ``./.repro-cache``, the default cache root.
    """
    from repro.experiments.workloads import olden_trace_path, workload as spec_of
    from repro.runtime.cache import default_cache_root

    from perfbench.traced import sidecar_path

    problems: "list[tuple[str | None, str]]" = []
    if Path(".repro-cache").exists():
        problems.append((None, "wrote under ./.repro-cache instead of REPRO_CACHE_DIR"))
    if workload.warm:
        after = _npz_files(cache_root)
        for m in workload.members:
            path = sidecar_path(m.name, m.scale, seed, cache_root)
            rel = str(path.relative_to(cache_root))
            if rel not in before:
                problems.append((m.id, "record was not prebuilt"))
            elif after.get(rel) != before[rel]:
                problems.append((m.id, REBUILT))
        for rel in sorted(set(after) - set(before)):
            problems.append((None, f"timed region wrote {rel}"))
        return problems
    if existed:
        problems.append((None, "cache existed before a cold round"))
    if workload.experiment == "table2":
        for m in workload.members:
            if not sidecar_path(m.name, m.scale, seed, cache_root).is_file():
                problems.append((m.id, "record was not built"))
            memo = olden_trace_path(m.name, m.scale, seed)
            memo = cache_root / memo.relative_to(default_cache_root())
            if spec_of(m.name).is_olden and not memo.is_file():
                problems.append((m.id, "trace memo was not built"))
    return problems


# -- per-layer metrics ------------------------------------------------------


def runtime_metrics(events: "list[tuple]") -> dict:
    """Queue wait, execution and scheduler overhead from job events."""
    queued, first_start, last_start = {}, {}, {}
    execs, overhead, retries = [], 0.0, 0
    for kind, label, stamp, duration in events:
        if kind == "queued":
            queued.setdefault(label, stamp)
        elif kind == "started":
            first_start.setdefault(label, stamp)
            last_start[label] = stamp
        elif kind == "retried":
            retries += 1
        elif kind == "finished" and duration is not None:
            execs.append(duration)
            overhead += stamp - last_start[label] - duration
    waits = [
        first_start[label] - queued[label]
        for label in first_start
        if label in queued
    ]
    return {
        "runtime.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
        "runtime.queue_wait_max_s": max(waits, default=0.0),
        "runtime.exec_p50_s": statistics.median(execs) if execs else 0.0,
        "runtime.exec_max_s": max(execs, default=0.0),
        "runtime.overhead_s": overhead,
        "runtime.crash_retries": retries,
    }


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _tree_mb(path: "Path | None", pattern: str = "*") -> float:
    if path is None or not path.exists():
        return 0.0
    return sum(p.stat().st_size for p in path.rglob(pattern) if p.is_file()) / 1e6


def layer_metrics(
    workload: Workload,
    pins: dict,
    results: dict,
    spans: "list[dict]",
    events: "list[tuple]",
    cache_root: Path,
    obs_dir: "Path | None",
    rebuilds: int,
) -> dict:
    """Every per-layer metric of one traced round."""
    took = durations(spans)
    own = self_times(spans)
    refs = {m.id: pins[m.id]["trace_refs"] for m in workload.members}
    records = {m.id: pins[m.id]["records"] for m in workload.members}

    def seconds(name: str) -> float:
        return took.get(name, 0.0)

    def replayed(name: str) -> int:
        return sum(records[s["member"]] for s in spans if s["name"] == name)

    metrics = {
        "traces.gen_s": seconds("traces.gen"),
        "traces.refs_per_s": _rate(
            sum(refs[s["member"]] for s in spans if s["name"] == "traces.gen"),
            seconds("traces.gen"),
        ),
        "l1filter.build_s": seconds("l1filter.build"),
        "l1filter.save_s": seconds("l1filter.save"),
        "l1filter.load_s": seconds("l1filter.load"),
        "l1filter.sidecar_mb": _tree_mb(cache_root, "*.l1f.npz"),
        "l1filter.l2_bound_ratio": _rate(
            sum(records.values()), sum(refs[m] for m in records if records[m])
        ),
        "l1filter.rebuilds": rebuilds,
        "baseline.replay_s": seconds("baseline.replay"),
        "baseline.records_per_s": _rate(
            replayed("baseline.replay"), seconds("baseline.replay")
        ),
        "chip.replay_s": seconds("chip.replay"),
        "chip.records_per_s": _rate(replayed("chip.replay"), seconds("chip.replay")),
        "sweep.population_s": seconds("sweep.population"),
        "analysis.l1_filter_s": seconds("analysis.l1_filter"),
        "analysis.stack_s": seconds("analysis.stack"),
        "obs.replay_s": seconds("obs.replay"),
        "obs.overhead_x": (
            _rate(
                seconds("obs.replay"),
                seconds("baseline.replay") + seconds("chip.replay"),
            )
            if obs_dir is not None
            else 0.0
        ),
        "obs.aggregate_s": seconds("obs.aggregate"),
        "obs.artifact_mb": _tree_mb(obs_dir),
    }
    metrics.update(_simulated_counts(workload, results))
    metrics["analysis.refs_per_s"] = _rate(
        metrics["analysis.references"], seconds("analysis.stack")
    )
    metrics.update(runtime_metrics(events))
    for name in ("workload", "job") + LAYER_SPANS:
        metrics[f"{name}.self_s"] = own.get(name, 0.0)
    return metrics


def _simulated_counts(workload: Workload, results: dict) -> dict:
    """Simulated counts summed over the round's members: every chip
    replay, and the L2-miss ratio over chip passes paired with a
    baseline pass (Table 2 rows; the sweep's ``migration`` variant)."""
    chip = dict.fromkeys(
        ("l1_miss_requests", "l2_misses", "migrations", "filter_updates",
         "transitions", "update_bus_bytes"),
        0,
    )
    paired = {"baseline": 0, "chip": 0, "migrations": 0}
    population = {"record_loads": 0, "records_shared": 0}
    references, transitions = 0, 0.0
    for m in workload.members:
        result = results.get(m.id, {})
        output = result.get("output")
        if output is None:
            continue
        if workload.experiment == "table2":
            counts = result["chip"]
            for key in chip:
                chip[key] += counts[key]
            paired["baseline"] += counts["baseline_l2_misses"]
            paired["chip"] += counts["l2_misses"]
            paired["migrations"] += counts["migrations"]
        elif workload.experiment == "sweep":
            for key in population:
                population[key] += result["population"][key]
            for variant, row in output.items():
                if variant == "baseline":
                    continue
                chip["l1_miss_requests"] += row["l1_misses"]
                chip["l2_misses"] += row["l2_misses"]
                chip["migrations"] += row["migrations"]
            paired["baseline"] += output["baseline"]["l2_misses"]
            paired["chip"] += output["migration"]["l2_misses"]
            paired["migrations"] += output["migration"]["migrations"]
        else:
            references += output["references"]
            transitions += output["transition_frequency"] * output["references"]
    return {
        "baseline.l2_misses": paired["baseline"],
        "chip.l1_miss_requests": chip["l1_miss_requests"],
        "chip.l2_misses": chip["l2_misses"],
        "chip.migrations": chip["migrations"],
        "chip.filter_updates": chip["filter_updates"],
        "chip.transitions": chip["transitions"],
        "chip.update_bus_mb": chip["update_bus_bytes"] / 1e6,
        "chip.l2_miss_ratio": _rate(paired["chip"], paired["baseline"]),
        "chip.misses_saved_per_migration": _rate(
            paired["baseline"] - paired["chip"], paired["migrations"]
        ),
        "sweep.record_loads": population["record_loads"],
        "sweep.records_shared": population["records_shared"],
        "analysis.references": references,
        "analysis.transition_frequency": _rate(transitions, references),
    }


# -- one round --------------------------------------------------------------


def run_round(
    workload: Workload,
    seed,
    pins: dict,
    cache_root: Path,
    traced: bool = False,
    t0: "float | None" = None,
) -> dict:
    """Set up, run and check one round in this process.

    ``cache_root`` must be the ``REPRO_CACHE_DIR`` of this process, and
    the working directory the round's own, so a stray write to the
    default ``./.repro-cache`` is caught.
    """
    if t0 is None:
        t0 = time.monotonic()
    existed = cache_root.exists()
    from repro.runtime.cache import code_fingerprint

    start = time.perf_counter()
    code_fingerprint()
    fingerprint_s = time.perf_counter() - start
    events = EventLog()
    sinks: list = [events] if traced else []
    obs_dir = None
    if workload.obs:
        from repro.obs.bridge import ObsRunlogSink

        obs_dir = cache_root.parent / "obs"
        sinks.append(ObsRunlogSink(obs_dir / "runtime.jsonl"))
    runtime = _runtime(cache_root, sinks)
    before = _npz_files(cache_root) if workload.warm else None
    log = SpanLog()

    cpu_start, _ = _cpu_and_rss()
    t_submit = time.monotonic()
    wall_start = time.time()
    try:
        if traced:
            results = run_traced(workload, seed, runtime, obs_dir, log, events)
        else:
            results = run_plain(workload, seed, runtime, obs_dir)
        jobs = check_jobs(workload, pins, results, obs_dir)
        t_done = time.monotonic()
        wall_end = time.time()
    finally:
        runtime.close()
    cpu_end, peak_rss_mb = _cpu_and_rss()

    cache = cache_problems(workload, seed, cache_root, existed, before)
    for job in jobs:
        member = job["id"].split("/", 1)[0]
        job["problems"] += [
            problem for where, problem in cache if where in (None, member)
        ]
    round_result = {
        "setup_s": t_submit - t0,
        "wall_s": t_done - t_submit,
        "cpu_s": cpu_end - cpu_start,
        "peak_rss_mb": peak_rss_mb,
        "jobs": jobs,
        "rows": {
            m.id: results[m.id]["output"]
            for m in workload.members
            if "output" in results.get(m.id, {})
        },
    }
    if traced:
        log.record("workload", wall_start, wall_end, None, span_id="workload")
        rebuilds = sum(1 for _, problem in cache if problem == REBUILT)
        layers = layer_metrics(
            workload,
            pins,
            results,
            log.spans,
            events.events,
            cache_root,
            obs_dir,
            rebuilds,
        )
        layers["runtime.fingerprint_s"] = fingerprint_s
        round_result["layers"] = layers
        round_result["spans"] = log.spans
    return round_result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, choices=sorted(INPUT_SEEDS))
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--prebuild", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = INPUT_SEEDS[args.inputs]
    cache_root = Path(os.environ["REPRO_CACHE_DIR"])
    if args.prebuild:
        prebuild(workload, seed, cache_root)
        return 0
    pins = load_pins()["workloads"][workload.name][args.inputs]
    result = run_round(
        workload, seed, pins, cache_root, traced=args.traced, t0=args.t0
    )
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
