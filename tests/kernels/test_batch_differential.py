"""Differential tests: the batched fast paths vs the seed per-access
path, compared on full deep state (see ``helpers.py``).

Hypothesis drives random mixed FETCH/LOAD/STORE traces through three
executions of every model — ``run`` (seed), ``run_arrays`` (batched)
and ``run_filtered`` (L1-filter replay, which dispatches to the
generated specialized kernel) — and requires indistinguishable final
state.  The filtered path is compared without the L1 cache
objects: the record *replaces* the model's L1 pair by contract, so
the replaying model's il1/dl1 stay untouched while its ``ChipStats``
(including the L1 miss counters) must still match exactly.  The fixed
cases pin the configurations the fast path must refuse (prefetchers,
which ``run()`` serves) or handle structurally (probes, 2-way
controller, fully-associative L1s).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches.hierarchy import CoreCacheConfig, SingleCoreHierarchy
from repro.core.controller import ControllerConfig
from repro.core.multiway import HierarchicalConfig, HierarchicalController
from repro.kernels.l1filter import build_l1_filter
from repro.multicore.chip import ChipConfig, MultiCoreChip
from tests.kernels.helpers import (
    PROBE_SHAPES,
    SMALL_CACHES,
    assert_probe_reports_match,
    assert_refused,
    chip_state,
    eventful_trace,
    hierarchy_state,
    make_trace,
    without_l1,
)

#: (element, kind index, instruction step) triples; elements span more
#: lines than the small L1s hold so misses, evictions and write-backs
#: all occur.
steps_strategy = st.lists(
    st.tuples(
        st.integers(0, 600), st.integers(0, 2), st.integers(0, 4)
    ),
    max_size=300,
)


#: probe settings: the sample intervals, an event cap low enough that
#: some runs drop events, and storm rules from one eviction a storm
#: (threshold 1) to the default 16 in 256 references
probe_settings = st.fixed_dictionaries(
    {
        "sample_interval": st.sampled_from([5, 7, 1000]),
        "max_events": st.sampled_from([60, 100_000]),
        "storm_window": st.sampled_from([1, 9, 256]),
        "storm_threshold": st.sampled_from([1, 3, 16]),
    }
)


def run_three_ways(make_model, accesses, arrays, config=None):
    """Seed loop, batched arrays, and filtered replay; return digests."""
    seed = make_model()
    for access in accesses:
        seed.access(access)
    batched = make_model()
    batched.run_arrays(*arrays)
    filtered = make_model()
    filtered.run_filtered(build_l1_filter(*arrays, config=config))
    return seed, batched, filtered


class TestChipDifferential:
    @given(steps=steps_strategy)
    @settings(max_examples=30, deadline=None)
    def test_four_core_chip(self, steps):
        accesses, arrays = make_trace(steps)
        seed, batched, filtered = run_three_ways(
            lambda: MultiCoreChip(ChipConfig()), accesses, arrays
        )
        assert chip_state(batched) == chip_state(seed)
        assert without_l1(chip_state(filtered)) == without_l1(chip_state(seed))

    @given(steps=steps_strategy)
    @settings(max_examples=15, deadline=None)
    def test_two_way_controller(self, steps):
        accesses, arrays = make_trace(steps)
        config = ChipConfig(
            num_cores=2,
            controller=ControllerConfig(
                num_subsets=2,
                filter_bits=18,
                affinity_cache_entries=1024,
                l2_filtering=True,
            ),
        )
        seed, batched, filtered = run_three_ways(
            lambda: MultiCoreChip(config), accesses, arrays
        )
        assert chip_state(batched) == chip_state(seed)
        assert without_l1(chip_state(filtered)) == without_l1(chip_state(seed))

    @given(steps=steps_strategy)
    @settings(max_examples=15, deadline=None)
    def test_stack_experiment_controller(self, steps):
        # Unbounded store, full sampling, no L2 filtering (section 4.1).
        accesses, arrays = make_trace(steps)
        config = ChipConfig(controller=ControllerConfig.stack_experiment())
        seed, batched, filtered = run_three_ways(
            lambda: MultiCoreChip(config), accesses, arrays
        )
        assert chip_state(batched) == chip_state(seed)
        assert without_l1(chip_state(filtered)) == without_l1(chip_state(seed))

    @given(steps=steps_strategy)
    @settings(max_examples=10, deadline=None)
    def test_with_prefetcher(self, steps):
        # A prefetcher mutates the L2s outside the kernels' model, so
        # the batched entry points refuse the chip, and run() serves it
        # (the prefetchers' own counters included).
        from repro.caches.prefetch import NextLinePrefetcher

        _, arrays = make_trace(steps)
        assert_refused(
            lambda: MultiCoreChip(
                ChipConfig(), prefetcher_factory=NextLinePrefetcher
            ),
            arrays,
            "prefetcher",
        )

    @pytest.mark.parametrize(
        "make_model, blocker",
        [
            (
                lambda: MultiCoreChip(
                    ChipConfig(caches=SMALL_CACHES),
                    controller=HierarchicalController(
                        HierarchicalConfig(depth=2)
                    ),
                ),
                "HierarchicalController",
            ),
            (
                lambda: MultiCoreChip(
                    ChipConfig(
                        caches=SMALL_CACHES,
                        controller=replace(
                            ControllerConfig.four_core(), lru_window=True
                        ),
                    )
                ),
                "LRU R-window",
            ),
        ],
        ids=["hierarchical_controller", "lru_window"],
    )
    def test_refused_controllers(self, make_model, blocker):
        # The generated controller blocks transcribe MigrationController
        # with FIFO R-windows; run() serves any other controller.
        assert_refused(make_model, eventful_trace(6), blocker)

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(sorted(PROBE_SHAPES)),
        probe_kwargs=probe_settings,
    )
    @settings(max_examples=30, deadline=None)
    def test_with_probe(self, seed, shape, probe_kwargs):
        # Eventful traces over every chip shape the kernels specialise
        # for: they miss, evict in storms, flip filters and migrate.
        config = PROBE_SHAPES[shape]
        arrays = eventful_trace(seed)
        assert_probe_reports_match(
            lambda probe: MultiCoreChip(config, probe=probe),
            arrays,
            build_l1_filter(*arrays, config=config.caches),
            probe_kwargs,
        )

    @given(steps=steps_strategy, probe_kwargs=probe_settings)
    @settings(max_examples=15, deadline=None)
    def test_with_probe_default_geometry(self, steps, probe_kwargs):
        # Short traces, the empty one and those shorter than one sample
        # interval included, on the default chip.
        _, arrays = make_trace(steps)
        assert_probe_reports_match(
            lambda probe: MultiCoreChip(ChipConfig(), probe=probe),
            arrays,
            build_l1_filter(*arrays),
            probe_kwargs,
        )


class TestHierarchyDifferential:
    @given(steps=steps_strategy)
    @settings(max_examples=30, deadline=None)
    def test_single_core(self, steps):
        accesses, arrays = make_trace(steps)
        seed, batched, filtered = run_three_ways(
            SingleCoreHierarchy, accesses, arrays
        )
        assert hierarchy_state(batched) == hierarchy_state(seed)
        assert without_l1(hierarchy_state(filtered)) == without_l1(
            hierarchy_state(seed)
        )

    @given(steps=steps_strategy)
    @settings(max_examples=15, deadline=None)
    def test_fully_associative_l1(self, steps):
        # l1_ways=0 selects fully-associative L1s.
        accesses, arrays = make_trace(steps)
        config = CoreCacheConfig(l1_ways=0)
        seed, batched, filtered = run_three_ways(
            lambda: SingleCoreHierarchy(config),
            accesses,
            arrays,
            config=config,
        )
        assert hierarchy_state(batched) == hierarchy_state(seed)
        assert without_l1(hierarchy_state(filtered)) == without_l1(
            hierarchy_state(seed)
        )

    @given(steps=steps_strategy)
    @settings(max_examples=10, deadline=None)
    def test_with_prefetcher(self, steps):
        from repro.caches.prefetch import NextLinePrefetcher

        _, arrays = make_trace(steps)
        assert_refused(
            lambda: SingleCoreHierarchy(
                prefetcher_factory=NextLinePrefetcher
            ),
            arrays,
            "prefetcher",
        )

    @given(seed=st.integers(0, 2**32 - 1), probe_kwargs=probe_settings)
    @settings(max_examples=15, deadline=None)
    def test_with_probe(self, seed, probe_kwargs):
        arrays = eventful_trace(seed)
        assert_probe_reports_match(
            lambda probe: SingleCoreHierarchy(SMALL_CACHES, probe=probe),
            arrays,
            build_l1_filter(*arrays, config=SMALL_CACHES),
            probe_kwargs,
        )

    @given(steps=steps_strategy, probe_kwargs=probe_settings)
    @settings(max_examples=15, deadline=None)
    def test_with_probe_default_geometry(self, steps, probe_kwargs):
        _, arrays = make_trace(steps)
        assert_probe_reports_match(
            lambda probe: SingleCoreHierarchy(probe=probe),
            arrays,
            build_l1_filter(*arrays),
            probe_kwargs,
        )


def test_olden_workload_differential():
    """One real Olden trace (not just synthetic streams) end to end."""
    from repro.experiments.workloads import workload

    spec = workload("mst", scale=0.05)
    arrays = spec.arrays()
    seed = MultiCoreChip(ChipConfig())
    for access in spec.accesses():
        seed.access(access)
    batched = MultiCoreChip(ChipConfig())
    batched.run_arrays(*arrays)
    filtered = MultiCoreChip(ChipConfig())
    filtered.run_filtered(build_l1_filter(*arrays))
    assert chip_state(batched) == chip_state(seed)
    assert without_l1(chip_state(filtered)) == without_l1(chip_state(seed))
