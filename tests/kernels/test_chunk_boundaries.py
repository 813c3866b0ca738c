"""Audit of the ``_CHUNK`` (= 65536) boundary in the batched kernels.

``run_arrays``/``build_l1_filter`` stream the trace in 64K-access
chunks; an off-by-one at the chunk seam would corrupt exactly the
traces whose length lands on the boundary.  This file pins lengths 0,
1, ``_CHUNK - 1``, ``_CHUNK`` and ``_CHUNK + 1`` through both fast
paths (``run_arrays`` and ``run_filtered``, which replay the miss
stream through the generated kernel) and requires the deep state of
the generic path: per-access simulation through ``run()``, which
serves every model.  Each length is simulated per access once per
model kind and shared by the tests that compare against it.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.caches.hierarchy import SingleCoreHierarchy
from repro.kernels.l1filter import _CHUNK, build_l1_filter
from repro.multicore.chip import ChipConfig, MultiCoreChip
from tests.kernels.helpers import (
    assert_probe_reports_match,
    chip_state,
    hierarchy_state,
    per_access,
    without_l1,
)

TINY = (0, 1)
SEAM = (_CHUNK - 1, _CHUNK, _CHUNK + 1)


def boundary_arrays(n, line_size=64):
    """A deterministic mixed trace of exactly ``n`` references.

    Spans ~1500 distinct lines (more than the small L1s hold, so
    misses, evictions and write-backs all occur on both sides of any
    chunk seam) with all three access kinds and a varying instruction
    step.
    """
    index = np.arange(n, dtype=np.int64)
    lines = (index * 2654435761) % 1501
    addresses = lines * line_size + 4
    kinds = (index % 3).astype(np.int8)
    instructions = np.cumsum((index * 7) % 5)
    return addresses, kinds, instructions


@lru_cache(maxsize=None)
def generic_state(kind, n):
    """The deep state after ``run()`` over ``boundary_arrays(n)``."""
    if kind == "chip":
        model = per_access(MultiCoreChip(ChipConfig()), boundary_arrays(n))
        return chip_state(model)
    model = per_access(SingleCoreHierarchy(), boundary_arrays(n))
    return hierarchy_state(model)


@pytest.mark.parametrize("n", TINY + SEAM)
def test_chip_fast_vs_generic(n):
    fast = MultiCoreChip(ChipConfig())
    fast.run_arrays(*boundary_arrays(n))
    assert chip_state(fast) == generic_state("chip", n)


@pytest.mark.parametrize("n", TINY + SEAM)
def test_chip_filtered_fast_vs_generic(n):
    fast = MultiCoreChip(ChipConfig())
    fast.run_filtered(build_l1_filter(*boundary_arrays(n)))
    assert without_l1(chip_state(fast)) == without_l1(generic_state("chip", n))


@pytest.mark.parametrize("n", TINY + SEAM)
def test_hierarchy_fast_vs_generic(n):
    arrays = boundary_arrays(n)
    fast = SingleCoreHierarchy()
    fast.run_arrays(*arrays)
    assert hierarchy_state(fast) == generic_state("hierarchy", n)
    filtered = SingleCoreHierarchy()
    filtered.run_filtered(build_l1_filter(*arrays))
    assert without_l1(hierarchy_state(filtered)) == without_l1(
        generic_state("hierarchy", n)
    )


@pytest.mark.parametrize("n", TINY)
def test_tiny_lengths_match_seed_loop(n):
    # The telemetry replay's edges: no record at all, and one, sampled
    # at every reference.
    arrays = boundary_arrays(n)
    record = build_l1_filter(*arrays)
    for make_model in (MultiCoreChip, SingleCoreHierarchy):
        assert_probe_reports_match(
            lambda probe: make_model(probe=probe),
            arrays,
            record,
            {"sample_interval": 1},
        )


@pytest.mark.parametrize("n", SEAM)
def test_l1_record_seam_consistency(n):
    """The L1 filter stage chunks over the same seam; splitting the
    trace at the chunk boundary and replaying the halves through one
    chip must equal the unsplit replay (both the record contents and
    the final chip state)."""
    arrays = boundary_arrays(n)
    record = build_l1_filter(*arrays)
    whole = MultiCoreChip(ChipConfig())
    whole.run_filtered(record)

    split = MultiCoreChip(ChipConfig())
    cut = _CHUNK - 1
    first = tuple(a[:cut] for a in arrays)
    second = tuple(a[cut:] for a in arrays)
    split.run_arrays(*first)
    split.run_arrays(*second)
    # The L1s are only touched on the arrays path.
    assert without_l1(chip_state(split)) == without_l1(chip_state(whole))
