"""Vectorized tag path and specialized kernels vs the scalar model.

The fast replay only counts because the numpy tag machinery —
:func:`~repro.kernels.arrays.skew_slot_matrix` and the specialized
replay kernels whose per-record precompute is built on it — is
bit-identical to the scalar per-access loops it replaces.  The scalar
code stays in the tree as the specification; this suite drives both
sides over random geometries (skewed and set-associative, 1/2/4-way
L2s, 32/64-KB L2s, 2- and 4-way controllers, unbounded, shared and
separately-shaped affinity stores, full and quarter sampling, L2
filtering on and off) and compares deep-state digests.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.caches.hierarchy import CoreCacheConfig, SingleCoreHierarchy
from repro.caches.skewed import skew_hash
from repro.core.controller import ControllerConfig, SamplingPolicy
from repro.kernels.arrays import skew_slot_matrix
from repro.kernels.l1filter import build_l1_filter
from repro.kernels.specialize import (
    replay_chip_specialized,
    replay_hierarchy_specialized,
)
from repro.multicore.chip import ChipConfig, MultiCoreChip
from tests.kernels.helpers import (
    chip_state,
    hierarchy_state,
    per_access,
    without_l1,
)

# int64 line addresses, including negatives: the slot matrix promises
# Python-exact `&`/`>>` semantics on the full signed range.
lines_strategy = st.lists(
    st.integers(-(2**40), 2**40), min_size=0, max_size=300
)
num_sets_strategy = st.sampled_from([4, 16, 64, 2048])
ways_strategy = st.sampled_from([1, 2, 4])


class TestTagArrays:
    @given(
        lines=lines_strategy,
        num_sets=num_sets_strategy,
        ways=ways_strategy,
    )
    @settings(max_examples=40, deadline=None)
    def test_slot_matrix_matches_scalar_skew_hash(
        self, lines, num_sets, ways
    ):
        index_bits = num_sets.bit_length() - 1
        matrix = skew_slot_matrix(lines, num_sets, ways)
        assert matrix.shape == (len(lines), ways)
        for i, line in enumerate(lines):
            for way in range(ways):
                assert matrix[i, way] == way * num_sets + skew_hash(
                    line, way, index_bits
                )


# -- specialized replay kernels vs the per-access model -----------------

#: small L1s so short random traces still produce a dense miss stream
_L1_SMALL = dict(il1_bytes=2048, dl1_bytes=2048, l1_ways=2)


def _random_trace(seed, n=1500, span=1800, line_size=64):
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, span, size=n, dtype=np.int64)
    addresses = lines * line_size + 4
    kinds = rng.integers(0, 3, size=n).astype(np.int8)
    instructions = np.cumsum(rng.integers(0, 4, size=n, dtype=np.int64))
    return addresses, kinds, instructions


chip_geometry = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "l2_ways": st.sampled_from([2, 4]),
        "l2_bytes": st.sampled_from([32 * 1024, 64 * 1024]),
        "subsets": st.sampled_from([2, 4]),
        "store_entries": st.sampled_from([None, 512, 2048]),
        "store_ways": st.sampled_from([2, 4]),
        "l2_filtering": st.booleans(),
        "quarter_sampling": st.booleans(),
    }
)


@given(geometry=chip_geometry)
@settings(max_examples=12, deadline=None)
def test_specialized_chip_matches_per_access_model(geometry):
    caches = CoreCacheConfig(
        l2_bytes=geometry["l2_bytes"],
        l2_ways=geometry["l2_ways"],
        **_L1_SMALL,
    )
    sampling = (
        SamplingPolicy.quarter()
        if geometry["quarter_sampling"]
        else SamplingPolicy.full()
    )
    base = (
        ControllerConfig.four_core()
        if geometry["subsets"] == 4
        else ControllerConfig(num_subsets=2)
    )
    controller = replace(
        base,
        sampling=sampling,
        affinity_cache_entries=geometry["store_entries"],
        affinity_cache_ways=geometry["store_ways"],
        l2_filtering=geometry["l2_filtering"],
    )
    config = ChipConfig(
        num_cores=geometry["subsets"], caches=caches, controller=controller
    )
    arrays = _random_trace(geometry["seed"])
    record = build_l1_filter(*arrays, config=caches)

    specialized = MultiCoreChip(config)
    replay_chip_specialized(specialized, record)
    reference = per_access(MultiCoreChip(config), arrays)
    # filtered replay never touches the chip's own L1 objects
    assert without_l1(chip_state(specialized)) == without_l1(
        chip_state(reference)
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    l2_ways=st.sampled_from([1, 2, 4]),
    l2_bytes=st.sampled_from([32 * 1024, 64 * 1024]),
)
@settings(max_examples=12, deadline=None)
def test_specialized_hierarchy_matches_per_access_model(
    seed, l2_ways, l2_bytes
):
    config = CoreCacheConfig(l2_bytes=l2_bytes, l2_ways=l2_ways, **_L1_SMALL)
    arrays = _random_trace(seed)
    record = build_l1_filter(*arrays, config=config)

    specialized = SingleCoreHierarchy(config)
    replay_hierarchy_specialized(specialized, record)
    reference = per_access(SingleCoreHierarchy(config), arrays)
    assert without_l1(hierarchy_state(specialized)) == without_l1(
        hierarchy_state(reference)
    )
