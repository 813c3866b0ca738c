"""Audit of the ``_CHUNK`` (= 65536) boundary in the batched kernels.

``run_arrays``/``build_l1_filter`` stream the trace in 64K-access
chunks; an off-by-one at the chunk seam would corrupt exactly the
traces whose length lands on the boundary.  This file pins lengths 0,
1, ``_CHUNK - 1``, ``_CHUNK`` and ``_CHUNK + 1`` through both the fast
regime (no probe — ``run_arrays`` and ``run_filtered`` both replay the
miss stream through the specialized generated kernel) and the generic
regime (probe attached, which makes the fast path ineligible), and
requires identical deep state between the two.  The
tiny lengths are additionally compared against the seed per-access
loop; the 64K lengths are not (a quarter-million per-access steps per
case would dominate the suite for no extra seam coverage).
"""

import numpy as np
import pytest

from repro.caches.hierarchy import SingleCoreHierarchy
from repro.kernels.l1filter import _CHUNK, build_l1_filter
from repro.multicore.chip import ChipConfig, MultiCoreChip
from tests.kernels.helpers import chip_state, hierarchy_state, without_l1

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


def _accesses(arrays):
    from repro.traces.trace import Access, AccessKind

    addresses, kinds, instructions = arrays
    return [
        Access(int(a), AccessKind(int(k)), int(i))
        for a, k, i in zip(addresses, kinds, instructions)
    ]


def _probe():
    from repro.obs import SimProbe

    return SimProbe(name="boundary", sample_interval=10_000)


@pytest.mark.parametrize("n", TINY + SEAM)
def test_chip_fast_vs_generic(n):
    arrays = boundary_arrays(n)
    fast = MultiCoreChip(ChipConfig())
    fast.run_arrays(*arrays)
    generic = MultiCoreChip(ChipConfig(), probe=_probe())
    generic.run_arrays(*arrays)
    assert chip_state(fast) == chip_state(generic)


@pytest.mark.parametrize("n", TINY + SEAM)
def test_chip_filtered_fast_vs_generic(n):
    arrays = boundary_arrays(n)
    record = build_l1_filter(*arrays)
    fast = MultiCoreChip(ChipConfig())
    fast.run_filtered(record)
    generic = MultiCoreChip(ChipConfig(), probe=_probe())
    generic.run_filtered(record)
    assert without_l1(chip_state(fast)) == without_l1(chip_state(generic))
    # The filtered replays must also agree with the arrays path on
    # everything but the untouched L1 objects.
    arrays_chip = MultiCoreChip(ChipConfig())
    arrays_chip.run_arrays(*arrays)
    assert without_l1(chip_state(fast)) == without_l1(chip_state(arrays_chip))


@pytest.mark.parametrize("n", TINY + SEAM)
def test_hierarchy_fast_vs_generic(n):
    arrays = boundary_arrays(n)
    record = build_l1_filter(*arrays)
    fast = SingleCoreHierarchy()
    fast.run_arrays(*arrays)
    generic = SingleCoreHierarchy(probe=_probe())
    generic.run_arrays(*arrays)
    assert hierarchy_state(fast) == hierarchy_state(generic)
    filtered = SingleCoreHierarchy()
    filtered.run_filtered(record)
    assert without_l1(hierarchy_state(filtered)) == without_l1(
        hierarchy_state(fast)
    )


@pytest.mark.parametrize("n", TINY)
def test_tiny_lengths_match_seed_loop(n):
    arrays = boundary_arrays(n)
    seed = MultiCoreChip(ChipConfig())
    for access in _accesses(arrays):
        seed.access(access)
    batched = MultiCoreChip(ChipConfig())
    batched.run_arrays(*arrays)
    assert chip_state(batched) == chip_state(seed)
    filtered = MultiCoreChip(ChipConfig())
    filtered.run_filtered(build_l1_filter(*arrays))
    assert without_l1(chip_state(filtered)) == without_l1(chip_state(seed))


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
    # Instruction counting restarts per run_arrays call, and the L1s
    # are only touched on the arrays path — compare the L2-and-beyond
    # machine state, which the seam would corrupt first.
    fast_state = without_l1(chip_state(whole))
    split_state = without_l1(chip_state(split))
    for state in (fast_state, split_state):
        state["stats"] = {
            k: v
            for k, v in state["stats"].items()
            if k not in ("instructions", "accesses", "l1_misses")
        }
    assert split_state == fast_state
