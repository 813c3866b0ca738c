"""Figures 4-5: LRU stack profiles, single stack vs 4-way split.

For every benchmark the paper plots ``p1(x)`` ("normal") and ``p4(x)``
("split") for cache sizes 16 KB .. 16 MB, plus the transition
frequency.  This driver runs the section 4.1 pipeline — raw trace →
16-KB fully-associative L1 filters → stack experiment — and reports
both curves at the paper's six sizes along with the transition
frequency and a splittability verdict.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from repro.analysis.splittability import SplittabilityReport, splittability_report
from repro.analysis.stack_profiles import (
    PAPER_CACHE_SIZE_LABELS,
    PAPER_CACHE_SIZES_LINES,
    StackExperiment,
    StackExperimentResult,
)
from repro.experiments.report import ascii_curve, render_rows, section
from repro.experiments.workloads import WORKLOAD_NAMES, workload
from repro.runtime import Job, payloads
from repro.traces.filters import ArrayL1Filter, L1FilterConfig


@dataclass(frozen=True)
class FigureProfileRow:
    """One benchmark's Figure 4/5 panel."""

    name: str
    references: int  #: L1 misses fed to the stacks
    p1_curve: "tuple[float, ...]"
    p4_curve: "tuple[float, ...]"
    transition_frequency: float
    verdict: SplittabilityReport


def run_figures45_for(
    name: str,
    scale: float = 1.0,
    seed: "int | None" = None,
    sizes_lines: "Sequence[int]" = PAPER_CACHE_SIZES_LINES,
) -> FigureProfileRow:
    """Run the stack experiment for one workload, a trace chunk at a
    time."""
    config = L1FilterConfig()
    l1 = ArrayL1Filter(config)
    experiment = StackExperiment()
    for addresses, kinds, instructions in workload(
        name, scale=scale, seed=seed
    ).array_chunks():
        misses = l1.filter(addresses, kinds, instructions)
        experiment.feed(addresses[misses] // config.line_size)
    result: StackExperimentResult = experiment.result(name)
    p1_curve, p4_curve = result.curves(sizes_lines)
    return FigureProfileRow(
        name=name,
        references=result.references,
        p1_curve=tuple(p1_curve),
        p4_curve=tuple(p4_curve),
        transition_frequency=result.transition_frequency,
        verdict=splittability_report(result, sizes_lines),
    )


def figures45_job(
    name: str,
    scale: float = 1.0,
    seed: "int | None" = None,
    sizes_lines: "Sequence[int] | None" = None,
) -> "dict[str, object]":
    """Runtime job: one Figure 4/5 panel as a JSON-able payload."""
    row = run_figures45_for(
        name,
        scale=scale,
        seed=seed,
        sizes_lines=(
            tuple(sizes_lines)
            if sizes_lines is not None
            else PAPER_CACHE_SIZES_LINES
        ),
    )
    payload = asdict(row)
    payload["p1_curve"] = list(row.p1_curve)
    payload["p4_curve"] = list(row.p4_curve)
    payload["references"] = row.references
    return payload


def figures45_row_from_payload(
    payload: "dict[str, object]",
) -> FigureProfileRow:
    verdict = payload["verdict"]
    return FigureProfileRow(
        name=payload["name"],
        references=payload["references"],
        p1_curve=tuple(payload["p1_curve"]),
        p4_curve=tuple(payload["p4_curve"]),
        transition_frequency=payload["transition_frequency"],
        verdict=SplittabilityReport(
            name=verdict["name"],
            gap=verdict["gap"],
            transition_frequency=verdict["transition_frequency"],
            splittable=verdict["splittable"],
        ),
    )


def figures45_jobs(
    names: "Sequence[str]" = WORKLOAD_NAMES,
    scale: float = 1.0,
    seed: "int | None" = None,
    sizes_lines: "Sequence[int] | None" = None,
) -> "list[Job]":
    extra = {}
    if sizes_lines is not None:
        extra["sizes_lines"] = list(sizes_lines)
    return [
        Job.create(
            "repro.experiments.figures45:figures45_job",
            label=f"figures45/{name}",
            name=name,
            scale=scale,
            seed=seed,
            **extra,
        )
        for name in names
    ]


def run_figures45(
    names: "Sequence[str]" = WORKLOAD_NAMES,
    scale: float = 1.0,
    sizes_lines: "Sequence[int]" = PAPER_CACHE_SIZES_LINES,
    seed: "int | None" = None,
    runtime=None,
) -> "list[FigureProfileRow]":
    """Run the stack experiment for every workload."""
    if runtime is None:
        return [
            run_figures45_for(
                name, scale=scale, seed=seed, sizes_lines=sizes_lines
            )
            for name in names
        ]
    jobs = figures45_jobs(
        names,
        scale=scale,
        seed=seed,
        sizes_lines=(
            None if tuple(sizes_lines) == tuple(PAPER_CACHE_SIZES_LINES)
            else sizes_lines
        ),
    )
    return [figures45_row_from_payload(p) for p in payloads(runtime.map(jobs))]


def render_figures45(
    rows: "Sequence[FigureProfileRow]",
    size_labels: "Sequence[str]" = PAPER_CACHE_SIZE_LABELS,
) -> str:
    """Per-benchmark p1/p4 values at the paper's sizes + verdicts."""
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.name,
                "p1",
                *(f"{v:.3f}" for v in row.p1_curve),
                f"{row.transition_frequency:.4f}",
                "",
            ]
        )
        table_rows.append(
            [
                row.name,
                "p4",
                *(f"{v:.3f}" for v in row.p4_curve),
                "",
                "SPLIT" if row.verdict.splittable else "no",
            ]
        )
    body = render_rows(
        ["benchmark", "curve", *size_labels, "trans", "splittable"], table_rows
    )
    sketches = "\n".join(
        f"{row.name:12s} p1 |{ascii_curve(row.p1_curve, 6)}|  "
        f"p4 |{ascii_curve(row.p4_curve, 6)}|"
        for row in rows
    )
    return (
        section("Figures 4-5: LRU stack profiles (normal vs split)")
        + "\n"
        + body
        + "\n\nprofile sketches (16k..16M):\n"
        + sketches
    )
