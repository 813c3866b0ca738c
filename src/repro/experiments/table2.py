"""Table 2: the four-core processor with 512-KB L2 caches.

For every benchmark the paper reports, in instructions per event
(higher is better): L1 misses, L2 misses on a single core ("normal"),
L2 misses with migrations enabled ("4xL2"), the miss ratio
``misses_with_migration / misses_baseline`` (below 1 = migration
removed misses), and the number of migrations.

This driver runs each workload twice over the identical trace: once
through the single-core hierarchy (baseline) and once through the
migration-mode chip (section 4.2 configuration), then derives the
paper's columns plus the break-even ``P_mig``.

Both passes replay the workload's shared
:class:`~repro.kernels.l1filter.L1FilterRecord` (the L1 stage is
simulated once per trace and geometry, cached on disk), which is
bit-identical to feeding the raw trace through ``chip.run`` — see
``docs/performance.md``.  A job whose record is not on disk yet builds
it as the trace streams and replays it batch by batch, each batch
through the baseline and then the chip
(:func:`~repro.kernels.l1filter.l1_filter_batches`), so it never holds
the whole record.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from repro.caches.hierarchy import SingleCoreHierarchy
from repro.experiments.report import ratio_cell, render_rows, section
from repro.experiments.workloads import WORKLOAD_NAMES
from repro.kernels.l1filter import l1_filter_batches
from repro.multicore.chip import ChipConfig, MultiCoreChip
from repro.multicore.migration import break_even_pmig
from repro.runtime import Job, payloads


@dataclass(frozen=True)
class Table2Row:
    """One benchmark's Table 2 entry (raw counts; per-event views below)."""

    name: str
    instructions: int
    l1_misses: int
    l2_misses_baseline: int
    l2_misses_migrating: int
    migrations: int
    accesses: int = 0  #: trace references per pass (work-volume metric)

    def _per(self, events: int) -> float:
        return self.instructions / events if events else float("inf")

    @property
    def instr_per_l1_miss(self) -> float:
        return self._per(self.l1_misses)

    @property
    def instr_per_l2_miss(self) -> float:
        return self._per(self.l2_misses_baseline)

    @property
    def instr_per_4xl2_miss(self) -> float:
        return self._per(self.l2_misses_migrating)

    @property
    def ratio(self) -> float:
        """``misses_with_migration / misses_baseline`` — Table 2's
        "ratio"; < 1 means execution migration removed L2 misses."""
        if self.l2_misses_baseline == 0:
            return float("nan")
        return self.l2_misses_migrating / self.l2_misses_baseline

    @property
    def instr_per_migration(self) -> float:
        return self._per(self.migrations)

    @property
    def break_even_pmig(self) -> float:
        """Max relative migration penalty at which migration still wins."""
        return break_even_pmig(
            self.instructions,
            self.l2_misses_baseline,
            self.l2_misses_migrating,
            self.migrations,
        )


def run_table2_for(
    name: str,
    scale: float = 1.0,
    seed: "int | None" = None,
    obs_dir: "str | None" = None,
) -> Table2Row:
    """Run baseline + migrating chip for one workload.

    With ``obs_dir``, both passes run instrumented
    (:class:`~repro.obs.probe.SimProbe`) and write their telemetry
    artifact triples (metrics/events/Chrome trace) into that directory.
    """
    from repro.obs import trace_context

    baseline_probe = chip_probe = None
    if obs_dir is not None:
        from repro.obs import SimProbe

        baseline_probe = SimProbe(name="baseline")
        chip_probe = SimProbe(name="chip")
    baseline = SingleCoreHierarchy(probe=baseline_probe)
    chip = MultiCoreChip(ChipConfig(), probe=chip_probe)
    # Consecutive replays compose, so a batch at a time through each
    # model ends where the whole record through each would.
    for record in l1_filter_batches(name, scale=scale, seed=seed):
        with trace_context.phase("replay.baseline", workload=name):
            baseline.run_filtered(record)
        with trace_context.phase("replay.chip", workload=name):
            chip.run_filtered(record)
        del record  # before the next batch is built
    if obs_dir is not None:
        from pathlib import Path

        from repro.obs import save_report

        save_report(
            baseline_probe.report(workload=name, run="baseline"),
            obs_dir,
            f"table2-{name}-baseline",
        )
        save_report(
            chip_probe.report(workload=name, run="chip"),
            obs_dir,
            f"table2-{name}-chip",
        )
        # Kernel phase spans (L1-filter load/build, both replay passes)
        # join the obs artifacts; the aggregate merger parents them to
        # this job's span via the propagated trace context.
        trace_context.write_phases(Path(obs_dir) / "phases.jsonl")
    else:
        trace_context.drain_phases()  # bounded either way; keep it empty
    chip_stats = chip.stats.to_dict()
    return Table2Row(
        name=name,
        instructions=chip_stats["instructions"],
        l1_misses=chip.stats.l1_misses,
        l2_misses_baseline=baseline.stats.l2_misses,
        l2_misses_migrating=chip_stats["l2_misses"],
        migrations=chip_stats["migrations"],
        accesses=chip_stats["accesses"],
    )


def table2_job(
    name: str,
    scale: float = 1.0,
    seed: "int | None" = None,
    obs_dir: "str | None" = None,
) -> "dict[str, object]":
    """Runtime job: one Table 2 row as a JSON-able payload."""
    row = run_table2_for(name, scale=scale, seed=seed, obs_dir=obs_dir)
    payload = asdict(row)
    # The identical trace runs through the baseline and the chip.
    payload["references"] = 2 * row.accesses
    return payload


def table2_row_from_payload(payload: "dict[str, object]") -> Table2Row:
    return Table2Row(
        name=payload["name"],
        instructions=payload["instructions"],
        l1_misses=payload["l1_misses"],
        l2_misses_baseline=payload["l2_misses_baseline"],
        l2_misses_migrating=payload["l2_misses_migrating"],
        migrations=payload["migrations"],
        accesses=payload.get("accesses", 0),
    )


def table2_jobs(
    names: "Sequence[str]" = WORKLOAD_NAMES,
    scale: float = 1.0,
    seed: "int | None" = None,
    obs_dir: "str | None" = None,
) -> "list[Job]":
    # obs_dir joins the job params (and so the content hash) only when
    # set, keeping plain runs' cache keys path-independent.
    extra = {"obs_dir": obs_dir} if obs_dir is not None else {}
    return [
        Job.create(
            "repro.experiments.table2:table2_job",
            label=f"table2/{name}",
            name=name,
            scale=scale,
            seed=seed,
            **extra,
        )
        for name in names
    ]


def run_table2(
    names: "Sequence[str]" = WORKLOAD_NAMES,
    scale: float = 1.0,
    seed: "int | None" = None,
    runtime=None,
    obs_dir: "str | None" = None,
) -> "list[Table2Row]":
    """Regenerate Table 2, serially or fanned out through a runtime."""
    if runtime is None:
        return [
            run_table2_for(name, scale=scale, seed=seed, obs_dir=obs_dir)
            for name in names
        ]
    outcomes = runtime.map(
        table2_jobs(names, scale=scale, seed=seed, obs_dir=obs_dir)
    )
    return [table2_row_from_payload(p) for p in payloads(outcomes)]


def _per_cell(value: float) -> str:
    if value == float("inf"):
        return "-"
    return f"{value:,.0f}"


def render_table2(rows: "Sequence[Table2Row]") -> str:
    body = render_rows(
        [
            "benchmark",
            "L1 miss",
            "L2 miss",
            "4xL2 miss",
            "ratio",
            "migration",
            "breakeven Pmig",
        ],
        [
            [
                row.name,
                _per_cell(row.instr_per_l1_miss),
                _per_cell(row.instr_per_l2_miss),
                _per_cell(row.instr_per_4xl2_miss),
                ratio_cell(row.ratio),
                _per_cell(row.instr_per_migration),
                (
                    f"{row.break_even_pmig:.0f}"
                    if row.break_even_pmig not in (float("inf"),)
                    else "-"
                ),
            ]
            for row in rows
        ],
    )
    return (
        section(
            "Table 2: 4-core / 512-KB L2s — instructions per event "
            "(higher is better)"
        )
        + "\n"
        + body
    )
