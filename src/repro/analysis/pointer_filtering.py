"""Pointer-load filtering (paper section 6, future work).

"It may be useful to distinguish low-penalty and high-penalty L2
misses.  For instance, pointer loads found in applications using linked
data structures generally have a high miss penalty.  One could decide
to restrict the class of applications triggering migrations by having
the transition filter updated only on requests coming from pointer
loads."

The mini-Olden traced heap tags every access whose value is a heap
reference, so this policy needs no new controller machinery: the
existing L2-filtering gate (``observe(line, l2_miss=...)``) doubles as
a general filter-update predicate.  :func:`run_pointer_filtering`
compares the ordinary controller with a pointer-gated one on an Olden
trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.controller import ControllerConfig, MigrationController
from repro.olden.heap import RecordedTrace
from repro.traces.filters import ArrayL1Filter


@dataclass(frozen=True)
class PointerFilteringResult:
    """Transition behaviour with and without pointer-load gating."""

    name: str
    references: int
    pointer_references: int
    transitions_unfiltered: int
    transitions_pointer_only: int

    @property
    def pointer_fraction(self) -> float:
        if self.references == 0:
            return 0.0
        return self.pointer_references / self.references

    @property
    def suppression(self) -> float:
        """Fraction of transitions removed by pointer gating."""
        if self.transitions_unfiltered == 0:
            return 0.0
        return 1.0 - self.transitions_pointer_only / self.transitions_unfiltered


def run_pointer_filtering(
    trace: RecordedTrace,
    config: "ControllerConfig | None" = None,
) -> PointerFilteringResult:
    """Run two controllers over an Olden trace's L1-miss stream: one
    updating its transition filter on every miss, one only on pointer
    accesses.  Affinity state advances identically in both (exactly the
    L2-filtering structure of section 3.4)."""
    base = config or ControllerConfig(num_subsets=2, filter_bits=16)
    unfiltered = MigrationController(base)
    pointer_gated = MigrationController(
        ControllerConfig(
            num_subsets=base.num_subsets,
            affinity_bits=base.affinity_bits,
            filter_bits=base.filter_bits,
            x_window_size=base.x_window_size,
            y_window_size=base.y_window_size,
            sampling=base.sampling,
            affinity_cache_entries=base.affinity_cache_entries,
            affinity_cache_ways=base.affinity_cache_ways,
            l2_filtering=True,  # the gate reused for pointer filtering
            lru_window=base.lru_window,
        )
    )
    l1 = ArrayL1Filter()
    addresses, kinds, instructions = trace.arrays()
    misses = l1.filter(addresses, kinds, instructions)
    lines = addresses[misses] // l1.config.line_size
    is_pointer = trace.pointer_flags()[misses]
    unfiltered.observe_many(lines)
    pointer_gated.observe_many(lines, l2_miss=is_pointer)

    return PointerFilteringResult(
        name=trace.name,
        references=len(lines),
        pointer_references=int(np.count_nonzero(is_pointer)),
        transitions_unfiltered=unfiltered.stats.transitions,
        transitions_pointer_only=pointer_gated.stats.transitions,
    )
