"""Variant sweeps over one shared L1-filter record.

Section 2.3's strict L1 mirroring makes the L1 stage of every chip
variant identical on a given trace, so a sweep comparing the single-core
baseline, the migrating chip, and controller ablations only has to
simulate the IL1/DL1 pair **once** per workload: each variant replays
the same compact :class:`~repro.kernels.l1filter.L1FilterRecord`
(see ``docs/performance.md``).

:func:`run_sweep` schedules the sweep in two waves — first the one
L1-filter job, then the per-variant replay jobs — so the record is
guaranteed to be built exactly once even with caching disabled for the
payloads; each variant payload carries ``l1_filter_cached`` so tests
(and curious users) can verify the reuse actually happened.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.report import render_rows, section
from repro.kernels.l1filter import ensure_l1_filter, l1_filter_job_for
from repro.runtime import Job, payloads

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


def variant_job(
    name: str,
    variant: str,
    scale: float = 1.0,
    seed: "int | None" = None,
) -> "dict[str, object]":
    """Runtime job: replay one workload's L1 record through one variant."""
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
        "references": record.accesses,
    }


def sweep_jobs(
    name: str,
    scale: float = 1.0,
    seed: "int | None" = None,
    variants: "Sequence[str]" = VARIANT_NAMES,
) -> "list[Job]":
    """The per-variant replay jobs (the L1-filter job is separate)."""
    return [
        Job.create(
            "repro.experiments.variants:variant_job",
            label=f"sweep/{name}/{variant}",
            name=name,
            variant=variant,
            scale=scale,
            seed=seed,
        )
        for variant in variants
    ]


def run_sweep(
    name: str,
    scale: float = 1.0,
    seed: "int | None" = None,
    runtime=None,
    variants: "Sequence[str]" = VARIANT_NAMES,
) -> "list[dict[str, object]]":
    """Run one workload through every variant; returns variant payloads.

    With a runtime, the L1-filter job runs (or cache-hits) first so the
    miss-stream sidecar exists before any variant starts — the replay
    jobs then share it even when they run in parallel workers.
    """
    if runtime is None:
        return [
            variant_job(name, variant, scale=scale, seed=seed)
            for variant in variants
        ]
    payloads(runtime.map([l1_filter_job_for(name, scale=scale, seed=seed)]))
    outcomes = runtime.map(sweep_jobs(name, scale=scale, seed=seed, variants=variants))
    return payloads(outcomes)


def run_population(
    name: str,
    scale: float = 1.0,
    seed: "int | None" = None,
    runtime=None,
    variants: "Sequence[str]" = VARIANT_NAMES,
):
    """Population-batch twin of :func:`run_sweep`.

    Delegates to :func:`repro.kernels.sweep.evaluate_population`: the
    L1-filter record is materialised once in the coordinating process
    and inherited by forked workers instead of each variant job
    re-reading the sidecar.  Returns the
    :class:`~repro.kernels.sweep.PopulationResult`; ``result.rows`` is
    render-compatible with :func:`render_sweep`.
    """
    from repro.kernels.sweep import evaluate_population

    return evaluate_population(
        name, variants, scale=scale, seed=seed, runtime=runtime
    )


def render_population(result) -> str:
    """Render one :class:`~repro.kernels.sweep.PopulationResult`: the
    ordinary sweep table plus the record-sharing footer."""
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
