"""Spans recorded around calls into each layer's public functions.

The traced round replaces each Table 2 and Figures 4-5 job with one of
the jobs below: they make the same layer calls the experiment's own job
makes, one at a time, and time each from here.  (The sweep keeps
``run_population``, which ``perfbench.round`` spans from the round
process.)  Spans are plain dicts kept in memory — ``{"id", "parent",
"name", "member", "start", "end"}`` with ``time.time()`` stamps, which
agree across the round process and its workers — and travel back to
the round process in the job payload.

The tree is ``workload`` → ``job`` (one per member; its id is the
member's id) → one span per layer call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from perfbench.suite import Member, profile_output, table2_output


class SpanLog:
    """An in-memory list of spans with ids unique per member."""

    def __init__(self) -> None:
        self.spans: "list[dict]" = []

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: "str | None",
        member: "str | None" = None,
        span_id: "str | None" = None,
    ) -> str:
        if span_id is None:
            span_id = f"{member}/{name}/{len(self.spans)}"
        self.spans.append(
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "member": member,
                "start": start,
                "end": end,
            }
        )
        return span_id

    @contextmanager
    def span(
        self,
        name: str,
        parent: "str | None",
        member: "str | None" = None,
        span_id: "str | None" = None,
    ):
        """Time the block; yields the span's id so children can name it."""
        if span_id is None:
            span_id = f"{member}/{name}/{len(self.spans)}"
        start = time.time()
        try:
            yield span_id
        finally:
            self.record(name, start, time.time(), parent, member, span_id)


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: "list[dict]") -> "dict[str, float]":
    """Per span name, the summed self time: each span's duration minus
    the part of it that its children cover."""
    children: "dict[str, list[tuple[float, float]]]" = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"])
        )
    totals: "dict[str, float]" = {}
    for span in spans:
        own = span["end"] - span["start"] - covered(
            span["start"], span["end"], children.get(span["id"], ())
        )
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def durations(spans: "list[dict]") -> "dict[str, float]":
    """Per span name, the summed duration (children included)."""
    totals: "dict[str, float]" = {}
    for span in spans:
        totals[span["name"]] = (
            totals.get(span["name"], 0.0) + span["end"] - span["start"]
        )
    return totals


def sidecar_path(
    name: str, scale: float, seed: "int | None", cache_root: "Path | None" = None
) -> Path:
    """Where ``ensure_l1_filter`` keeps this member's record:
    ``<cache root>/<code version>/<l1-filter job hash>.l1f.npz``, under
    ``cache_root`` or else the default root."""
    from repro.kernels.l1filter import l1_filter_job_for
    from repro.runtime.cache import ResultCache

    job = l1_filter_job_for(name, scale=scale, seed=seed)
    return ResultCache(root=cache_root).generation_dir / f"{job.hash}.l1f.npz"


# -- traced jobs (run in the runtime's workers) ----------------------------


def table2_traced_job(
    name: str,
    scale: float,
    seed: "int | None" = None,
    warm: bool = False,
    obs_dir: "str | None" = None,
) -> dict:
    """One Table 2 row, layer by layer.

    Cold: trace generation, L1-filter build and sidecar save, then both
    replays.  Warm: the sidecar load, then (with ``obs_dir``) the
    instrumented ``run_table2_for``, then both plain replays on the same
    record — the telemetry-off base of ``obs.overhead_x``, whose row
    must equal the instrumented one.
    """
    from dataclasses import asdict

    from repro.caches.hierarchy import SingleCoreHierarchy
    from repro.experiments.table2 import run_table2_for
    from repro.experiments.workloads import workload
    from repro.kernels.l1filter import build_l1_filter, ensure_l1_filter
    from repro.multicore.chip import ChipConfig, MultiCoreChip

    member = Member(name, scale).id
    log = SpanLog()
    obs_row = None
    with log.span("job", "workload", member, span_id=member) as job:
        if warm:
            with log.span("l1filter.load", job, member):
                record, _cached = ensure_l1_filter(name, scale=scale, seed=seed)
        else:
            with log.span("traces.gen", job, member):
                arrays = workload(name, scale=scale, seed=seed).arrays()
            with log.span("l1filter.build", job, member):
                record = build_l1_filter(*arrays)
            del arrays
            with log.span("l1filter.save", job, member):
                record.save(sidecar_path(name, scale, seed))
        if obs_dir is not None:
            with log.span("obs.replay", job, member):
                obs_row = run_table2_for(
                    name, scale=scale, seed=seed, obs_dir=obs_dir
                )
        with log.span("baseline.replay", job, member):
            baseline = SingleCoreHierarchy()
            baseline.run_filtered(record)
        with log.span("chip.replay", job, member):
            chip = MultiCoreChip(ChipConfig())
            chip.run_filtered(record)
    stats = chip.stats
    output = {
        "instructions": stats.instructions,
        "l1_misses": stats.l1_misses,
        "l2_misses_baseline": baseline.stats.l2_misses,
        "l2_misses_migrating": stats.l2_misses,
        "migrations": stats.migrations,
        "accesses": stats.accesses,
    }
    chip_counts = {
        "l1_miss_requests": stats.l1_miss_requests,
        "l2_misses": stats.l2_misses,
        "migrations": stats.migrations,
        "filter_updates": chip.controller.stats.filter_updates,
        "transitions": chip.controller.stats.transitions,
        "update_bus_bytes": chip.bus_traffic.total_bytes,
        "baseline_l2_misses": baseline.stats.l2_misses,
    }
    result = {"output": output, "spans": log.spans, "chip": chip_counts}
    if obs_row is not None:
        # The untraced round returns the instrumented row; this round
        # returns it too, and the plain row must match it.
        result["output"] = table2_output(asdict(obs_row))
        result["plain_output"] = output
    return result


def profiles_traced_job(name: str, scale: float, seed: "int | None" = None) -> dict:
    """One Figures 4-5 panel, stage by stage.

    The experiment streams the trace through the L1 filter into the
    stacks; here each stage's output is materialised first so each
    stage's time is its own.
    """
    from repro.analysis.splittability import splittability_report
    from repro.analysis.stack_profiles import (
        PAPER_CACHE_SIZES_LINES,
        run_stack_experiment,
    )
    from repro.experiments.workloads import workload
    from repro.traces.filters import L1Filter, L1FilterConfig

    member = Member(name, scale).id
    log = SpanLog()
    with log.span("job", "workload", member, span_id=member) as job:
        with log.span("traces.gen", job, member):
            accesses = list(workload(name, scale=scale, seed=seed).accesses())
        with log.span("analysis.l1_filter", job, member):
            lines = [
                ref.line for ref in L1Filter(L1FilterConfig()).filter(accesses)
            ]
        del accesses
        with log.span("analysis.stack", job, member):
            result = run_stack_experiment(lines, name=name)
            p1_curve, p4_curve = result.curves(PAPER_CACHE_SIZES_LINES)
            verdict = splittability_report(result, PAPER_CACHE_SIZES_LINES)
    output = profile_output(
        {
            "references": result.references,
            "p1_curve": p1_curve,
            "p4_curve": p4_curve,
            "transition_frequency": result.transition_frequency,
            "verdict": {"splittable": verdict.splittable},
        }
    )
    return {"output": output, "spans": log.spans}
