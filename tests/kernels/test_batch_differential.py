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
cases pin the configurations the fast path must
*bypass* correctly (prefetchers, probes) or handle structurally
(2-way controller, migration disabled, fully-associative L1s).
"""

import json

from hypothesis import given, settings, strategies as st

from repro.caches.hierarchy import CoreCacheConfig, SingleCoreHierarchy
from repro.core.controller import ControllerConfig
from repro.kernels.l1filter import build_l1_filter
from repro.multicore.chip import ChipConfig, MultiCoreChip
from tests.kernels.helpers import (
    chip_state,
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
    def test_migration_disabled(self, steps):
        accesses, arrays = make_trace(steps)
        config = ChipConfig(migration_enabled=False)
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
        # A prefetcher mutates the L2s outside the fast path's model, so
        # the batched entry points must fall back to the generic replay
        # — and still match, including the prefetcher's own counters.
        from repro.caches.prefetch import NextLinePrefetcher

        accesses, arrays = make_trace(steps)
        make_model = lambda: MultiCoreChip(
            ChipConfig(), prefetcher_factory=NextLinePrefetcher
        )
        seed, batched, filtered = run_three_ways(make_model, accesses, arrays)
        assert chip_state(batched) == chip_state(seed)
        assert without_l1(chip_state(filtered)) == without_l1(chip_state(seed))
        digests = [
            [vars(p.stats) for p in model.prefetchers]
            for model in (seed, batched, filtered)
        ]
        assert digests[1] == digests[0]
        assert digests[2] == digests[0]

    @given(steps=steps_strategy)
    @settings(max_examples=10, deadline=None)
    def test_with_probe(self, steps):
        # Probe event streams must fire at the same access numbers and
        # in the same order on every path.
        from repro.obs import SimProbe

        accesses, arrays = make_trace(steps)
        reports = []
        for mode in ("seed", "arrays", "filtered"):
            probe = SimProbe(name="diff", sample_interval=7)
            chip = MultiCoreChip(ChipConfig(), probe=probe)
            if mode == "seed":
                for access in accesses:
                    chip.access(access)
            elif mode == "arrays":
                chip.run_arrays(*arrays)
            else:
                chip.run_filtered(build_l1_filter(*arrays))
            reports.append(
                json.dumps(
                    probe.report().to_dict(), sort_keys=True, default=str
                )
            )
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]


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
    def test_with_probe(self, steps):
        from repro.obs import SimProbe

        accesses, arrays = make_trace(steps)
        reports = []
        for mode in ("seed", "arrays", "filtered"):
            probe = SimProbe(name="diff", sample_interval=5)
            hierarchy = SingleCoreHierarchy(probe=probe)
            if mode == "seed":
                for access in accesses:
                    hierarchy.access(access)
            elif mode == "arrays":
                hierarchy.run_arrays(*arrays)
            else:
                hierarchy.run_filtered(build_l1_filter(*arrays))
            reports.append(
                json.dumps(
                    probe.report().to_dict(), sort_keys=True, default=str
                )
            )
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]


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
