"""L1-filter records: build, persistence, cache reuse, trace memoisation."""

import tracemalloc

import numpy as np
import pytest

from repro.caches.hierarchy import CoreCacheConfig
from repro.kernels.l1filter import (
    FETCH_MISS,
    LOAD_MISS,
    STORE_L1_HIT,
    STORE_L1_MISS,
    L1FilterRecord,
    build_l1_filter,
    ensure_l1_filter,
)
from tests.kernels.helpers import make_trace


def _record():
    _accesses, arrays = make_trace(
        [(e % 40, k, 2) for e, k in zip(range(200), [0, 1, 2] * 67)]
    )
    return build_l1_filter(*arrays), arrays


class TestRecord:
    def test_derived_counts_match_l1_pair(self):
        record, arrays = _record()
        # Replaying derived counters must agree with simulating the L1s.
        config = CoreCacheConfig()
        il1 = config.make_l1(config.il1_bytes)
        dl1 = config.make_l1(config.dl1_bytes)
        from repro.traces.trace import AccessKind

        for address, kind in zip(arrays[0].tolist(), arrays[1].tolist()):
            line = address // config.line_size
            if kind == int(AccessKind.FETCH):
                il1.access(line)
            elif kind == int(AccessKind.LOAD):
                dl1.access(line)
            else:
                dl1.access(line, write=True, allocate=False)
        assert record.il1_misses == il1.stats.misses
        assert record.dl1_misses == dl1.stats.misses
        assert record.accesses == len(arrays[0])
        kinds = record.kinds.tolist()
        assert set(kinds) <= {
            FETCH_MISS,
            LOAD_MISS,
            STORE_L1_HIT,
            STORE_L1_MISS,
        }
        # indices are strictly increasing positions into the raw trace
        indices = record.indices.tolist()
        assert indices == sorted(indices)
        assert all(0 <= i < record.accesses for i in indices)

    def test_save_load_round_trip(self, tmp_path):
        record, _arrays = _record()
        path = tmp_path / "rec.npz"
        record.save(path)
        loaded = L1FilterRecord.load(path)
        assert loaded.line_size == record.line_size
        assert loaded.accesses == record.accesses
        assert loaded.max_instruction == record.max_instruction
        assert np.array_equal(loaded.indices, record.indices)
        assert np.array_equal(loaded.lines, record.lines)
        assert np.array_equal(loaded.kinds, record.kinds)

    def test_load_rejects_arrays_of_unequal_length(self, tmp_path):
        # What a damaged .npy header that shortens one array looks like:
        # the member is not read to its end, so its CRC never fails.
        record, _arrays = _record()
        record.lines = record.lines[:-1]
        path = tmp_path / "rec.npz"
        record.save(path)
        with pytest.raises(ValueError, match="disagree on length"):
            L1FilterRecord.load(path)

    def test_require_match_rejects_other_geometry(self):
        record, _arrays = _record()
        other = CoreCacheConfig(l1_ways=0)
        assert not record.matches(other)
        with pytest.raises(ValueError):
            record.require_match(other)
        record.require_match(CoreCacheConfig())


class TestBuildFootprint:
    def test_build_holds_arrays_not_lists(self):
        # Nearly every reference of a 2^18-reference trace over 2^20
        # lines reaches the L2.  The build holds the record's 17 B per
        # record, its copy while the chunks are joined, and one chunk's
        # temporaries; Python lists of the records would cost about
        # 80 B per record on top.
        references = 1 << 18
        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 1 << 20, size=references) * 64
        kinds = rng.integers(0, 3, size=references).astype(np.int8)
        instructions = np.arange(references, dtype=np.int64)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            record = build_l1_filter(addresses, kinds, instructions)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert record.records > 0.99 * references
        assert peak <= 48 * references


class TestEnsureL1Filter:
    def test_sidecar_reuse(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        record, cached = ensure_l1_filter("mst", scale=0.05)
        assert cached is False
        again, cached_again = ensure_l1_filter("mst", scale=0.05)
        assert cached_again is True
        assert np.array_equal(again.lines, record.lines)
        assert np.array_equal(again.kinds, record.kinds)
        # different scale = different job hash = its own record
        _other, other_cached = ensure_l1_filter("mst", scale=0.04)
        assert other_cached is False

    def test_corrupt_sidecar_rebuilds(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ensure_l1_filter("mst", scale=0.05)
        sidecars = list(tmp_path.rglob("*.l1f.npz"))
        assert len(sidecars) == 1
        sidecars[0].write_bytes(b"not an npz")
        record, cached = ensure_l1_filter("mst", scale=0.05)
        assert cached is False
        assert record.accesses > 0


class TestOldenTraceMemo:
    def test_memoised_arrays_match_stream(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments.workloads import olden_trace_path, workload

        spec = workload("mst", scale=0.05)
        path = olden_trace_path("mst", 0.05, None)
        assert not path.exists()
        addresses, kinds, instructions = spec.arrays()
        assert path.exists()  # first call wrote the memo
        # a fresh spec reloads from the npz and must agree with the
        # generator stream access for access
        reloaded = workload("mst", scale=0.05).arrays()
        assert np.array_equal(reloaded[0], addresses)
        assert np.array_equal(reloaded[1], kinds)
        assert np.array_equal(reloaded[2], instructions)
        stream = list(spec.accesses())
        assert addresses.tolist() == [a.address for a in stream]
        assert kinds.tolist() == [int(a.kind) for a in stream]
        assert instructions.tolist() == [a.instruction for a in stream]

    def test_corrupt_memo_regenerates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments.workloads import olden_trace_path, workload

        first = workload("mst", scale=0.05).arrays()
        path = olden_trace_path("mst", 0.05, None)
        path.write_bytes(b"garbage")
        second = workload("mst", scale=0.05).arrays()
        assert np.array_equal(first[0], second[0])
