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
* :mod:`repro.kernels.batch` — the record replay behind
  ``MultiCoreChip.run_filtered`` / ``run_arrays`` and their
  ``SingleCoreHierarchy`` twins: the generated kernels of
  :mod:`repro.kernels.specialize` for standard models, the real
  component methods for probed or prefetching ones.  ``run_arrays``
  is the L1 kernel followed by that same replay.
* :mod:`repro.kernels.sweep` — population sweeps: one record per
  workload, replayed through every variant.

See ``docs/performance.md`` for the architecture and measured numbers.
"""

from repro.kernels.arrays import skew_slot_matrix, trace_to_arrays
from repro.kernels.batch import (
    run_chip_arrays,
    run_chip_filtered,
    run_hierarchy_arrays,
    run_hierarchy_filtered,
)
from repro.kernels.l1filter import (
    L1FilterRecord,
    build_l1_filter,
    ensure_l1_filter,
    l1_filter_job,
    l1_filter_job_for,
)

__all__ = [
    "L1FilterRecord",
    "build_l1_filter",
    "ensure_l1_filter",
    "l1_filter_job",
    "l1_filter_job_for",
    "run_chip_arrays",
    "run_chip_filtered",
    "run_hierarchy_arrays",
    "run_hierarchy_filtered",
    "skew_slot_matrix",
    "trace_to_arrays",
]
