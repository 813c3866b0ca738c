"""L1 front-end filters."""

from repro.traces.filters import L1Filter
from repro.traces.trace import Access, AccessKind


def loads(addresses, start_instruction=0):
    return [
        Access(a, AccessKind.LOAD, start_instruction + i)
        for i, a in enumerate(addresses)
    ]


class TestFiltering:
    def test_first_touch_misses(self):
        f = L1Filter()
        out = list(f.filter(loads([0])))
        assert len(out) == 1
        assert out[0].line == 0

    def test_hit_is_filtered_out(self):
        f = L1Filter()
        out = list(f.filter(loads([0, 0, 0])))
        assert len(out) == 1

    def test_capacity_miss_passes_through(self):
        # 16 KB fully-assoc = 256 lines; a 300-line circular always misses.
        f = L1Filter()
        trace = loads([i * 64 for i in range(300)] * 2)
        out = list(f.filter(trace))
        assert len(out) == 600

    def test_fetches_use_il1(self):
        f = L1Filter()
        trace = [Access(0, AccessKind.FETCH, 0), Access(0, AccessKind.LOAD, 1)]
        out = list(f.filter(trace))
        # The load misses too: IL1 and DL1 are separate caches.
        assert len(out) == 2
        assert f.il1_misses == 1
        assert f.dl1_misses == 1

    def test_instruction_watermark(self):
        f = L1Filter()
        list(f.filter(loads([0, 64], start_instruction=10)))
        assert f.instructions == 12

    def test_counts(self):
        f = L1Filter()
        list(f.filter(loads([0, 0, 64])))
        assert f.accesses == 3
        assert f.l1_misses == 2


class TestStorePolicy:
    def test_section41_stores_allocate(self):
        """Section 4.1: stores behave as loads."""
        f = L1Filter()
        trace = [
            Access(0, AccessKind.STORE, 0),
            Access(0, AccessKind.LOAD, 1),
        ]
        out = list(f.filter(trace))
        assert len(out) == 1  # the load hits the allocated line

    def test_store_miss_reference_is_marked_write(self):
        f = L1Filter()
        out = list(f.filter([Access(0, AccessKind.STORE, 0)]))
        assert out[0].is_write


class TestSetAssociativeOption:
    def test_fully_assoc_default(self):
        from repro.caches.fully_assoc import FullyAssociativeCache

        f = L1Filter()
        assert isinstance(f.dl1, FullyAssociativeCache)
