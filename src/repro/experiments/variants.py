"""Variant sweeps over one L1-filter record.

Section 2.3's strict L1 mirroring makes the L1 stage of every chip
variant identical on a given trace, so a sweep comparing the single-core
baseline, the migrating chip, and controller ablations only has to
simulate the IL1/DL1 pair **once** per workload: each variant replays
the same compact :class:`~repro.kernels.l1filter.L1FilterRecord`
(see ``docs/performance.md``).

:func:`run_population` is the sweep, two rounds of ordinary jobs: the
workload's l1filter job (:func:`~repro.kernels.l1filter.l1_filter_job_for`)
simulates the L1s once and leaves the record's sidecar, then one
:func:`population_job` per variant reads that sidecar and replays it.
Both rounds run through the runtime when there is one, else in
process; no record is loaded outside a job.
:func:`make_variant` builds each variant's model; :func:`render_population`
prints the rows with the record footer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

from repro.experiments.report import render_rows, section
from repro.kernels.l1filter import ensure_l1_filter, l1_filter_job_for
from repro.runtime import Job, execute_job, payloads
from repro.runtime.scheduler import CACHED

#: the default 3-variant sweep: baseline / migration / one ablation
VARIANT_NAMES = ("baseline", "migration", "no-l2-filter")


def make_variant(variant: str):
    """Build the simulation model for one sweep variant."""
    from repro.caches.hierarchy import SingleCoreHierarchy
    from repro.core.controller import ControllerConfig
    from repro.multicore.chip import ChipConfig, MultiCoreChip

    if variant == "baseline":
        return SingleCoreHierarchy()
    if variant == "migration":
        return MultiCoreChip(ChipConfig())
    if variant == "no-l2-filter":
        controller = replace(ControllerConfig.four_core(), l2_filtering=False)
        return MultiCoreChip(ChipConfig(controller=controller))
    raise ValueError(
        f"unknown variant {variant!r}; known: {VARIANT_NAMES}"
    )


def population_job(
    name: str,
    variant: str,
    scale: float = 1.0,
    seed: "int | None" = None,
) -> "dict[str, object]":
    """Runtime job: replay one variant over the workload's record.

    The payload carries the variant's L2 counters and what
    :func:`~repro.kernels.l1filter.ensure_l1_filter` did in this job:
    ``l1_filter_cached`` when it read the sidecar, and
    ``record_source``, ``"sidecar"`` or ``"built"``.
    """
    record, cached = ensure_l1_filter(name, scale=scale, seed=seed)
    model = make_variant(variant)
    model.run_filtered(record)
    stats = model.stats
    return {
        "workload": name,
        "variant": variant,
        "l1_misses": stats.l1_misses,
        "l2_accesses": stats.l2_accesses,
        "l2_misses": stats.l2_misses,
        "migrations": getattr(stats, "migrations", 0),
        "instructions": stats.instructions,
        "l1_filter_cached": cached,
        "record_source": "sidecar" if cached else "built",
        "references": record.accesses,
    }


def population_jobs(
    name: str, scale: float = 1.0, seed: "int | None" = None
) -> "list[Job]":
    """One :func:`population_job` per variant of :data:`VARIANT_NAMES`."""
    return [
        Job.create(
            "repro.experiments.variants:population_job",
            label=f"population/{name}/{variant}",
            name=name,
            variant=variant,
            scale=scale,
            seed=seed,
        )
        for variant in VARIANT_NAMES
    ]


@dataclass
class PopulationResult:
    """Outcome of one :func:`run_population` call."""

    rows: "list[dict[str, object]]"
    #: records the jobs that ran materialised, each a sidecar read or
    #: an L1 build: the l1filter job's and one per variant job; 0 when
    #: the runtime served every job
    shared_record_loads: int
    wall_seconds: float
    #: rows by where their job found the record, ``"sidecar"`` or
    #: ``"built"``; ``"cached"`` for a row the runtime served without
    #: running its job
    record_sources: "dict[str, int]"


def _run(jobs: "list[Job]", runtime):
    """``(payloads, ran)``: each job's payload, and whether the job ran
    rather than being served from the runtime's checkpoint or cache."""
    if runtime is None:
        return [execute_job(job)[0] for job in jobs], [True] * len(jobs)
    outcomes = runtime.map(jobs)
    return payloads(outcomes), [o.status != CACHED for o in outcomes]


def run_population(
    name: str,
    scale: float = 1.0,
    seed: "int | None" = None,
    runtime=None,
) -> PopulationResult:
    """Replay one workload's L1-filter record through every variant.

    First the workload's l1filter job simulates the L1s, or finds the
    sidecar a past run left; then one :func:`population_job` per
    variant reads that sidecar and replays it.  Both rounds run over
    ``runtime``, or serially in this process when ``runtime`` is
    ``None``.  ``result.rows`` is render-compatible with
    :func:`render_sweep`.
    """
    start = time.perf_counter()
    _, l1_ran = _run([l1_filter_job_for(name, scale=scale, seed=seed)], runtime)
    rows, ran = _run(population_jobs(name, scale=scale, seed=seed), runtime)
    sources: "dict[str, int]" = {}
    for row, fresh in zip(rows, ran):
        source = str(row["record_source"]) if fresh else "cached"
        sources[source] = sources.get(source, 0) + 1
    return PopulationResult(
        rows=rows,
        shared_record_loads=sum(l1_ran) + sum(ran),
        wall_seconds=time.perf_counter() - start,
        record_sources=sources,
    )


def render_population(result: PopulationResult) -> str:
    """Render one :class:`PopulationResult`: the ordinary sweep table
    plus the record footer."""
    sources = ", ".join(
        f"{count}× {source}"
        for source, count in sorted(result.record_sources.items())
    )
    return (
        render_sweep(result.rows)
        + f"\nrecord loads: {result.shared_record_loads} "
        + f"(sources: {sources or 'none'}; "
        + f"{result.wall_seconds:.2f}s wall)\n"
    )


def render_sweep(rows: "Sequence[dict[str, object]]") -> str:
    body = render_rows(
        ["variant", "L2 accesses", "L2 misses", "migrations", "L1 reuse"],
        [
            [
                str(row["variant"]),
                f"{row['l2_accesses']:,}",
                f"{row['l2_misses']:,}",
                f"{row['migrations']:,}",
                "cached" if row["l1_filter_cached"] else "built",
            ]
            for row in rows
        ],
    )
    workload = rows[0]["workload"] if rows else "?"
    return (
        section(f"Variant sweep over one L1-filter record — {workload}")
        + "\n"
        + body
    )
