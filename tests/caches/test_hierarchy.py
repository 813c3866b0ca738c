"""Single-core IL1/DL1/L2 hierarchy."""

from repro.caches.hierarchy import CoreCacheConfig, SingleCoreHierarchy
from repro.traces.trace import Access, AccessKind


def make_hierarchy(**overrides) -> SingleCoreHierarchy:
    return SingleCoreHierarchy(CoreCacheConfig(**overrides))


class TestRouting:
    def test_fetch_goes_through_il1(self):
        h = make_hierarchy()
        h.access(Access(0, AccessKind.FETCH, 0))
        assert h.il1.stats.accesses == 1
        assert h.dl1.stats.accesses == 0

    def test_load_goes_through_dl1(self):
        h = make_hierarchy()
        h.access(Access(0, AccessKind.LOAD, 0))
        assert h.dl1.stats.accesses == 1
        assert h.il1.stats.accesses == 0

    def test_l1_hit_skips_l2(self):
        h = make_hierarchy()
        h.access(Access(0, AccessKind.LOAD, 0))
        l2_before = h.stats.l2_accesses
        outcome = h.access(Access(0, AccessKind.LOAD, 1))
        assert outcome.l1_miss is False
        assert h.stats.l2_accesses == l2_before

    def test_l1_miss_reaches_l2(self):
        h = make_hierarchy()
        outcome = h.access(Access(0, AccessKind.LOAD, 0))
        assert outcome.l1_miss and outcome.l2_access and outcome.l2_miss

    def test_second_miss_hits_l2(self):
        h = make_hierarchy(il1_bytes=128, dl1_bytes=128, l1_ways=2)
        # Two lines alias in the tiny DL1... use enough lines to evict.
        for i in range(8):
            h.access(Access(i * 64, AccessKind.LOAD, i))
        outcome = h.access(Access(0, AccessKind.LOAD, 100))
        assert outcome.l1_miss is True
        assert outcome.l2_miss is False  # L2 kept it


class TestStorePolicy:
    def test_store_always_reaches_l2(self):
        """Write-through: stores access the L2 even on DL1 hits."""
        h = make_hierarchy()
        h.access(Access(0, AccessKind.LOAD, 0))  # DL1 now holds line 0
        before = h.stats.l2_accesses
        outcome = h.access(Access(0, AccessKind.STORE, 1))
        assert outcome.l1_miss is False
        assert h.stats.l2_accesses == before + 1

    def test_store_miss_does_not_allocate_dl1(self):
        h = make_hierarchy()
        h.access(Access(64 * 999, AccessKind.STORE, 0))
        assert 999 not in h.dl1

    def test_store_allocates_in_l2(self):
        """Write-allocate L2: a store miss installs the line."""
        h = make_hierarchy()
        h.access(Access(64 * 999, AccessKind.STORE, 0))
        assert 999 in h.l2
        assert h.l2.is_dirty(999)

    def test_store_miss_counts_as_l1_miss(self):
        h = make_hierarchy()
        outcome = h.access(Access(0, AccessKind.STORE, 0))
        assert outcome.l1_miss
        assert h.stats.l1_misses == 1


class TestConfig:
    def test_fully_associative_l1_option(self):
        h = make_hierarchy(l1_ways=0)
        from repro.caches.fully_assoc import FullyAssociativeCache

        assert isinstance(h.il1, FullyAssociativeCache)

    def test_skewed_l2_default(self):
        from repro.caches.skewed import SkewedAssociativeCache

        assert isinstance(make_hierarchy().l2, SkewedAssociativeCache)

    def test_set_assoc_l2_option(self):
        from repro.caches.set_assoc import SetAssociativeCache

        h = make_hierarchy(l2_skewed=False)
        assert isinstance(h.l2, SetAssociativeCache)

    def test_paper_geometry(self):
        h = make_hierarchy()
        assert h.il1.capacity_lines == 256  # 16 KB
        assert h.l2.capacity_lines == 8192  # 512 KB


class TestInstructionTracking:
    def test_instructions_follow_trace(self):
        h = make_hierarchy()
        h.access(Access(0, AccessKind.LOAD, 10))
        h.access(Access(64, AccessKind.LOAD, 25))
        assert h.stats.instructions == 26

    def test_working_set_larger_than_l2_misses(self):
        """A circular sweep over > 512 KB must keep missing the L2."""
        h = make_hierarchy()
        lines = 10_000  # 640 KB > 512 KB
        for lap in range(3):
            for i in range(lines):
                h.access(Access(i * 64, AccessKind.LOAD, lap * lines + i))
        # Second and third laps should still miss heavily (capacity).
        assert h.stats.l2_misses > lines * 2
