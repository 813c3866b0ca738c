"""L1-filter records: build, persistence, cache reuse, trace memoisation."""

import io
import tracemalloc

import numpy as np
import pytest

from repro.caches.hierarchy import CoreCacheConfig
from repro.kernels import l1filter
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


def _traced_peak(build) -> "tuple[object, int]":
    """``build()``'s result and its ``tracemalloc`` peak, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


class TestBuildFootprint:
    def test_build_holds_arrays_not_lists(self, monkeypatch):
        # Nearly every reference of a 2^18-reference trace over 2^20
        # lines reaches the L2.  The build grows the record's 17 B per
        # record in place and holds one chunk's temporaries, made small
        # here beside the record; joining per-chunk pieces would add a
        # second copy of the record (about 35 B per reference), and
        # per-record Python lists about 80 B.
        monkeypatch.setattr(l1filter, "_CHUNK", 1 << 12)
        references = 1 << 18
        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 1 << 20, size=references) * 64
        kinds = rng.integers(0, 3, size=references).astype(np.int8)
        instructions = np.arange(references, dtype=np.int64)
        record, peak = _traced_peak(
            lambda: build_l1_filter(addresses, kinds, instructions)
        )
        assert record.records > 0.99 * references
        assert peak <= 24 * references


class TestChunkFootprint:
    def test_one_chunk_of_temporaries(self):
        # One 65,536-reference 179.art chunk (every reference a load or
        # a store) through the DL1: the set-major walk used to peak at
        # about 160 B a reference, its events' Python ints and int64
        # temporaries all alive at once.  It walks the events in slices
        # and frees each temporary once used; the bound includes the
        # 17 B a record of the grown record.
        from repro.experiments.workloads import workload

        addresses, kinds, _ = next(
            workload("179.art", scale=0.016384).array_chunks()
        )
        config = CoreCacheConfig()
        stream = l1filter._MissStream(
            config.make_l1(config.il1_bytes),
            config.make_l1(config.dl1_bytes),
            config.line_size,
        )
        _, peak = _traced_peak(lambda: stream.extend(addresses, kinds))
        assert stream.pending > 0.99 * len(addresses)
        assert peak <= 100 * len(addresses)


class TestColdBuildFootprint:
    """A cold ``ensure_l1_filter`` holds the trace's recording words (an
    Olden workload), the record, and one chunk: never the whole decoded
    trace (17 B per reference) nor a joined copy of the record.

    Measured as bytes per reference of the ``tracemalloc`` peak between
    a trace and one about twice as long, so that what one chunk costs
    (the SPEC generator's draws, one chunk's L1 temporaries) cancels.
    The Olden memo is written first: running the benchmark itself holds
    its heap objects, which are not the build's.
    """

    @pytest.mark.parametrize(
        "name, scales, words_per_reference",
        [
            ("health", (0.1, 0.2), 1.25),  # recording words: 8 B each
            ("179.art", (0.016384, 0.032768), 0),  # 65,536 and 131,072
        ],
    )
    def test_peak_per_reference(
        self, tmp_path, monkeypatch, name, scales, words_per_reference
    ):
        import repro.olden.heap as heap
        from repro.experiments.workloads import workload

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(l1filter, "_CHUNK", 1 << 12)
        monkeypatch.setattr(heap, "_CHUNK", 1 << 12)
        builds = []
        for scale in scales:
            spec = workload(name, scale=scale)
            if spec.is_olden:
                spec.arrays()  # writes the memo
            record, peak = _traced_peak(
                lambda: ensure_l1_filter(name, scale=scale)[0]
            )
            builds.append((record.accesses, record.records, peak))
        (references, records, peak), (references2, records2, peak2) = builds
        added = references2 - references
        assert added > 0.9 * references
        # A record holds 8 + 8 + 1 bytes per record in arrays grown with
        # up to 1/16 slack, which the longer build may carry over its
        # whole record where the shorter one carried none.
        budget = 8 * words_per_reference * added + 17 * (1 + 2 / 16) * (
            records2 - records
        )
        assert peak2 - peak <= budget + 2 * added


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
    def test_memo_is_save_npz_of_the_spilled_words(self, tmp_path, monkeypatch):
        # Recorded through many spills, copied from the spill file into
        # the memo: byte for byte save_npz of the words themselves.
        import repro.olden.heap as heap_module
        from repro.experiments.workloads import olden_trace_path, workload
        from repro.olden import olden_benchmark
        from repro.traces.file_format import save_npz

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(heap_module, "_SPILL", 1000)
        workload("mst", scale=0.05).arrays()
        path = olden_trace_path("mst", 0.05, None)
        with np.load(path) as data:
            words = data["words"]
        recorded = np.concatenate(list(olden_benchmark("mst", 0.05).pieces()))
        assert np.array_equal(words, recorded)
        expected = io.BytesIO()
        save_npz(expected, version=np.int64(2), words=words)
        assert path.read_bytes() == expected.getvalue()

    def test_memo_decodes_a_chunk_at_a_time(self, tmp_path, monkeypatch):
        # A memo's words are checked, then read where they lie in the
        # file a chunk at a time: the decode holds one chunk's words and
        # its temporaries, and one check block while the CRC is checked,
        # never all the words (8 B each).
        import repro.experiments.workloads as workloads
        import repro.olden.heap as heap_module
        from repro.traces import file_format

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = workloads.workload("health", scale=0.2)
        spilled = [np.concatenate(c) for c in zip(*spec.array_chunks())]
        monkeypatch.setattr(workloads, "olden_benchmark", None)  # memo only
        monkeypatch.setattr(heap_module, "_CHUNK", 4096)
        monkeypatch.setattr(file_format, "_CHECK_BLOCK", 1 << 16)
        budget = 24 * 8 * heap_module._CHUNK + 4 * file_format._CHECK_BLOCK
        memo = workloads.olden_trace_path("health", 0.2, None)
        assert memo.stat().st_size > 3 * budget
        tracemalloc.start()
        try:
            chunks = sum(1 for _chunk in spec.array_chunks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks > 100
        assert peak < budget
        decoded = [np.concatenate(c) for c in zip(*spec.array_chunks())]
        for got, want in zip(decoded, spilled):
            assert np.array_equal(got, want)

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

    def test_arrays_keep_no_recording_alive(self, tmp_path, monkeypatch):
        # arrays() hands out views of the recorder's buffers; once the
        # caller drops them, nothing may hold the recording (an
        # in-process cache kept it through both Table 2 replays).
        import weakref

        import repro.experiments.workloads as workloads

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        recordings = []
        benchmark = workloads.olden_benchmark

        def recorded(*args, **kwargs):
            trace = benchmark(*args, **kwargs)
            recordings.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(workloads, "olden_benchmark", recorded)
        arrays = workloads.workload("mst", scale=0.05).arrays()
        assert len(recordings) == 1  # no memo yet: the benchmark ran
        assert len(arrays[0]) > 0
        del arrays
        assert recordings[0]() is None

    def test_corrupt_memo_regenerates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments.workloads import olden_trace_path, workload

        first = workload("mst", scale=0.05).arrays()
        path = olden_trace_path("mst", 0.05, None)
        path.write_bytes(b"garbage")
        second = workload("mst", scale=0.05).arrays()
        assert np.array_equal(first[0], second[0])


class TestWithoutPread:
    def test_staged_files_are_read_by_seek(self, tmp_path, monkeypatch):
        # Where os has no pread (Windows), a staged array is read by a
        # seek and a read: the spilled trace, the memo published from
        # it, the trace decoded from that memo and the sidecar of a
        # streamed build come out as they do through pread.
        import os

        import repro.olden.heap as heap_module
        from repro.experiments.workloads import workload
        from repro.olden import olden_benchmark

        monkeypatch.setattr(heap_module, "_SPILL", 1000)
        expected = olden_benchmark("mst", 0.05).arrays()
        monkeypatch.delattr(os, "pread")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spilled = workload("mst", scale=0.05).arrays()  # publishes the memo
        memoised = workload("mst", scale=0.05).arrays()
        for got in (spilled, memoised):
            for array, want in zip(got, expected):
                assert np.array_equal(array, want)
        for _batch in l1filter.l1_filter_batches("mst", scale=0.05):
            pass
        (sidecar,) = tmp_path.rglob("*.l1f.npz")
        whole = l1filter.build_l1_filter_from_chunks(
            workload("mst", scale=0.05).array_chunks()
        ).save(tmp_path / "whole.npz")
        assert sidecar.read_bytes() == whole.read_bytes()
