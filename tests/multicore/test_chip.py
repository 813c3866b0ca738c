"""The full migration-mode chip."""

import pytest

from repro.caches.hierarchy import CoreCacheConfig, SingleCoreHierarchy
from repro.core.controller import ControllerConfig
from repro.multicore.chip import ChipConfig, MultiCoreChip
from repro.traces.synthetic import Circular, behavior_trace
from repro.traces.trace import Access, AccessKind


#: tiny caches, so capacity effects appear fast
SMALL_CACHES = CoreCacheConfig(
    il1_bytes=1024, dl1_bytes=1024, l1_ways=4, l2_bytes=8 * 1024, l2_ways=4
)


def small_chip(num_cores=4, **controller_kw) -> MultiCoreChip:
    """A chip of :data:`SMALL_CACHES` cores."""
    controller = ControllerConfig(
        num_subsets=num_cores,
        filter_bits=12,
        x_window_size=16,
        y_window_size=8,
        l2_filtering=True,
        **controller_kw,
    )
    return MultiCoreChip(
        ChipConfig(
            num_cores=num_cores, caches=SMALL_CACHES, controller=controller
        )
    )


class TestConfig:
    def test_cores_must_match_controller(self):
        with pytest.raises(ValueError):
            ChipConfig(num_cores=2)  # default controller is 4-way


class TestBasicAccounting:
    def test_l1_hit_generates_no_l2_traffic(self):
        chip = small_chip()
        chip.access(Access(0, AccessKind.LOAD, 0))
        l2_before = chip.stats.l2_accesses
        chip.access(Access(0, AccessKind.LOAD, 1))
        assert chip.stats.l2_accesses == l2_before

    def test_store_writes_through(self):
        chip = small_chip()
        chip.access(Access(0, AccessKind.LOAD, 0))
        before = chip.stats.l2_accesses
        chip.access(Access(0, AccessKind.STORE, 1))
        assert chip.stats.l2_accesses == before + 1
        assert chip.bus_traffic.store_bytes > 0

    def test_l1_fill_broadcast_recorded(self):
        chip = small_chip()
        chip.access(Access(0, AccessKind.LOAD, 0))
        assert chip.bus_traffic.l1_fill_bytes == 64

    def test_instructions_tracked(self):
        chip = small_chip()
        chip.access(Access(0, AccessKind.LOAD, 99))
        assert chip.stats.instructions == 100

    def test_update_bus_summary(self):
        chip = small_chip()
        chip.access(Access(0, AccessKind.STORE, 0))
        summary = chip.update_bus_bytes()
        assert summary["store_bytes"] > 0
        assert summary["peak_bytes_per_cycle"] == pytest.approx(45, abs=2)


class TestMigrationBehaviour:
    def test_migrations_happen_on_splittable_set(self):
        chip = small_chip()
        # 64 KB circular working set >> 8 KB L2, << 32 KB aggregate.
        for access in behavior_trace(Circular(1024), 200_000):
            chip.access(access)
        assert chip.stats.migrations > 0

    def test_migration_reduces_misses_on_splittable_set(self):
        """The headline effect at miniature scale: 4 small L2s +
        migration beat one small L2 on a circular set that fits the
        aggregate but not one cache."""
        baseline = SingleCoreHierarchy(SMALL_CACHES)
        migrating = small_chip()
        trace = list(behavior_trace(Circular(400), 300_000))  # 25 KB set
        for access in trace:
            baseline.access(access)
            migrating.access(access)
        assert migrating.stats.l2_misses < baseline.stats.l2_misses

    def test_active_core_follows_controller_subset(self):
        chip = small_chip()
        for access in behavior_trace(Circular(1024), 100_000):
            chip.access(access)
        assert chip.active_core == chip.controller.current_subset()

    def test_migration_count_matches_engine(self):
        chip = small_chip()
        for access in behavior_trace(Circular(1024), 100_000):
            chip.access(access)
        assert chip.stats.migrations == chip.engine.migrations


class TestTwoCoreConfiguration:
    def test_two_way_chip_works(self):
        """The paper: 'it works also on 2-core configurations'."""
        chip = small_chip(num_cores=2)
        baseline = SingleCoreHierarchy(SMALL_CACHES)
        trace = list(behavior_trace(Circular(220), 150_000))  # ~14 KB set
        for access in trace:
            chip.access(access)
            baseline.access(access)
        assert chip.stats.migrations > 0
        assert chip.stats.l2_misses < baseline.stats.l2_misses
