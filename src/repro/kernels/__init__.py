"""Batched simulation kernels: the array-native fast path.

The per-access simulator (``MultiCoreChip.access``) is the
specification, but it pays Python interpreter overhead for every memory
reference.  This package splits a run at the L1s: the mirrored L1 pair
filters the trace once into a compact miss-stream record, and one
replay of that record drives the L2s, coherence and migration
controller — **bit-identical** to the per-access path (enforced by the
differential tests in ``tests/kernels``).

Layers:

* :mod:`repro.kernels.arrays` — trace-array helpers and the vectorised
  skew-hash slot matrix the kernel precompute uses.
* :mod:`repro.kernels.l1filter` — the L1-filter kernel: simulate the
  mirrored IL1/DL1 pair once per (trace, L1 geometry) and emit a
  compact miss-stream :class:`~repro.kernels.l1filter.L1FilterRecord`
  that every chip variant in a sweep replays (paper section 2.3: "the
  L1 miss frequency is the same as if execution had not migrated", so
  the L1 stage is identical across baseline/migration/ablations).
* :mod:`repro.kernels.specialize` — the record replay behind
  ``MultiCoreChip.run_filtered`` / ``run_arrays`` and their
  ``SingleCoreHierarchy`` twins: a kernel generated per model shape.
  ``run_arrays`` is the L1 kernel followed by that same replay.  A
  model the kernels cannot replay exactly (a prefetcher, an LRU
  R-window, a non-standard component, or a probe other than the
  ``SimProbe`` its constructor attached) is refused with a
  ``ValueError``; ``run()``, the per-access specification, serves it.

The package holds only kernels: the variant sweep that replays one
record through every chip variant is
:func:`repro.experiments.variants.run_population`.  See
``docs/performance.md`` for the architecture and measured numbers.
"""

from repro.kernels.arrays import skew_slot_matrix, trace_to_arrays
from repro.kernels.l1filter import (
    L1FilterRecord,
    build_l1_filter,
    ensure_l1_filter,
    l1_filter_job,
    l1_filter_job_for,
)

# The package imports the record replay up front, so a forked job
# worker inherits its modules instead of importing them between its L1
# build and its replays (about 4 MB more peak RSS on table2-cold).
from repro.kernels.specialize import (
    replay_chip_specialized,
    replay_hierarchy_specialized,
)

__all__ = [
    "L1FilterRecord",
    "build_l1_filter",
    "ensure_l1_filter",
    "l1_filter_job",
    "l1_filter_job_for",
    "replay_chip_specialized",
    "replay_hierarchy_specialized",
    "skew_slot_matrix",
    "trace_to_arrays",
]
