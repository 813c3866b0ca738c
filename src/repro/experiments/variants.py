"""Variant sweeps over one shared L1-filter record.

Section 2.3's strict L1 mirroring makes the L1 stage of every chip
variant identical on a given trace, so a sweep comparing the single-core
baseline, the migrating chip, and controller ablations only has to
simulate the IL1/DL1 pair **once** per workload: each variant replays
the same compact :class:`~repro.kernels.l1filter.L1FilterRecord`
(see ``docs/performance.md``).

:func:`run_population` is the sweep: it materialises the record once in
the coordinating process and replays one job per variant over it
(:mod:`repro.kernels.sweep`).  :func:`make_variant` builds each
variant's model; :func:`render_population` prints the rows with the
record-sharing footer.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.report import render_rows, section

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


def run_population(
    name: str,
    scale: float = 1.0,
    seed: "int | None" = None,
    runtime=None,
    variants: "Sequence[str]" = VARIANT_NAMES,
):
    """Replay one workload's L1-filter record through every variant.

    Delegates to :func:`repro.kernels.sweep.evaluate_population`: the
    record is materialised once in the coordinating process and
    inherited by forked workers.  Returns the
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
