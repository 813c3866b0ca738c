"""Table 1: benchmark inventory.

The paper's Table 1 lists, per benchmark, the input, the number of
dynamic instructions simulated, and the IL1/DL1 miss counts through
16-KB fully-associative LRU L1s with 64-byte lines.  This driver
regenerates the same columns for the 18 modelled workloads (at this
reproduction's scale — all quantities are also reported per 1000
instructions so shapes compare directly with the paper's
millions-per-billion).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from repro.experiments.report import render_rows, section
from repro.experiments.workloads import WORKLOAD_NAMES, workload
from repro.runtime import Job, payloads
from repro.traces.filters import ArrayL1Filter, L1FilterConfig


@dataclass(frozen=True)
class Table1Row:
    """One benchmark's inventory entry."""

    name: str
    accesses: int
    instructions: int
    il1_misses: int
    dl1_misses: int

    @property
    def il1_per_kilo_instruction(self) -> float:
        return 1000.0 * self.il1_misses / max(1, self.instructions)

    @property
    def dl1_per_kilo_instruction(self) -> float:
        return 1000.0 * self.dl1_misses / max(1, self.instructions)


def run_table1_for(
    name: str, scale: float = 1.0, seed: "int | None" = None
) -> Table1Row:
    """Measure one workload through the section 4.1 L1 filters."""
    l1 = ArrayL1Filter(L1FilterConfig())
    for chunk in workload(name, scale=scale, seed=seed).array_chunks():
        l1.filter(*chunk)
    return Table1Row(
        name=name,
        accesses=l1.accesses,
        instructions=l1.instructions,
        il1_misses=l1.il1_misses,
        dl1_misses=l1.dl1_misses,
    )


def table1_job(
    name: str, scale: float = 1.0, seed: "int | None" = None
) -> "dict[str, object]":
    """Runtime job: one Table 1 row as a JSON-able payload."""
    row = run_table1_for(name, scale=scale, seed=seed)
    payload = asdict(row)
    payload["references"] = row.accesses
    return payload


def table1_row_from_payload(payload: "dict[str, object]") -> Table1Row:
    return Table1Row(
        name=payload["name"],
        accesses=payload["accesses"],
        instructions=payload["instructions"],
        il1_misses=payload["il1_misses"],
        dl1_misses=payload["dl1_misses"],
    )


def table1_jobs(
    names: "Sequence[str]" = WORKLOAD_NAMES,
    scale: float = 1.0,
    seed: "int | None" = None,
) -> "list[Job]":
    return [
        Job.create(
            "repro.experiments.table1:table1_job",
            label=f"table1/{name}",
            name=name,
            scale=scale,
            seed=seed,
        )
        for name in names
    ]


def run_table1(
    names: "Sequence[str]" = WORKLOAD_NAMES,
    scale: float = 1.0,
    seed: "int | None" = None,
    runtime=None,
) -> "list[Table1Row]":
    """Measure every workload through the section 4.1 L1 filters.

    With a :class:`~repro.runtime.ExperimentRuntime`, workloads fan out
    as one cached job each; without one, they run serially in-process.
    """
    if runtime is None:
        return [run_table1_for(name, scale=scale, seed=seed) for name in names]
    outcomes = runtime.map(table1_jobs(names, scale=scale, seed=seed))
    return [table1_row_from_payload(p) for p in payloads(outcomes)]


def render_table1(rows: "Sequence[Table1Row]") -> str:
    """Text rendering in the paper's column layout."""
    body = render_rows(
        ["benchmark", "instr", "IL1 miss", "DL1 miss", "i/1k-instr", "d/1k-instr"],
        [
            [
                row.name,
                f"{row.instructions:,}",
                f"{row.il1_misses:,}",
                f"{row.dl1_misses:,}",
                f"{row.il1_per_kilo_instruction:.2f}",
                f"{row.dl1_per_kilo_instruction:.2f}",
            ]
            for row in rows
        ],
    )
    return section("Table 1: benchmarks, instruction counts, L1 misses") + "\n" + body
