"""Population-batch evaluation: one record load, many variants.

Covers the :mod:`repro.kernels.sweep` contract end to end — the record
resolution order (inherited over fork → sidecar), the
``shared_record_loads == 1`` happy path in both serial and forked
multi-worker mode, spawned workers falling back to the sidecar, and row
identity against each variant replaying a freshly built record on its
own (``make_variant(v).run_filtered(record)``).  Also pins the bounded
in-process caches feeding the sweep: the ``ensure_l1_filter``
open-record LRU and the per-record precompute memo.
"""

import numpy as np
import pytest

from repro.kernels.l1filter import (
    build_l1_filter,
    drop_open_records,
    ensure_l1_filter,
)
from repro.kernels.sweep import (
    PopulationResult,
    evaluate_population,
    population_job,
    record_key,
)
from repro.obs.metrics import process_counter
from repro.runtime import EventBus, ExperimentRuntime, ResultCache, RuntimeConfig

SCALE = 0.05

#: payload keys a population row shares with its variant's own replay
STAT_KEYS = (
    "workload",
    "variant",
    "l1_misses",
    "l2_accesses",
    "l2_misses",
    "migrations",
    "instructions",
    "references",
)


@pytest.fixture(autouse=True)
def _pristine(tmp_path, monkeypatch):
    """Private cache root and an empty in-process record cache per test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    drop_open_records()
    yield
    drop_open_records()


def _runtime(root, jobs=1, **config_kwargs):
    return ExperimentRuntime(
        config=RuntimeConfig(jobs=jobs, **config_kwargs),
        cache=ResultCache(root=root),
        bus=EventBus([]),
    )


def _stats(row):
    return {key: row[key] for key in STAT_KEYS}


def _reference_rows():
    """Each variant's own replay of a freshly built mst record: the
    rows a population must reproduce bit for bit."""
    from repro.experiments.variants import VARIANT_NAMES, make_variant
    from repro.experiments.workloads import workload

    record = build_l1_filter(*workload("mst", scale=SCALE).arrays())
    rows = []
    for variant in VARIANT_NAMES:
        model = make_variant(variant)
        model.run_filtered(record)
        stats = model.stats
        rows.append(
            {
                "workload": "mst",
                "variant": variant,
                "l1_misses": stats.l1_misses,
                "l2_accesses": stats.l2_accesses,
                "l2_misses": stats.l2_misses,
                "migrations": getattr(stats, "migrations", 0),
                "instructions": stats.instructions,
                "references": record.accesses,
            }
        )
    return rows


def _tiny_record(l2_span=600, n=400):
    rng = np.random.default_rng(7)
    lines = rng.integers(0, l2_span, size=n, dtype=np.int64)
    addresses = lines * 64
    kinds = rng.integers(0, 3, size=n).astype(np.int8)
    instructions = np.cumsum(rng.integers(0, 4, size=n, dtype=np.int64))
    return build_l1_filter(addresses, kinds, instructions)


class TestSerialPopulation:
    def test_rows_match_the_per_job_sweep(self, tmp_path):
        from repro.experiments.variants import VARIANT_NAMES

        cache = ResultCache(root=tmp_path)
        result = evaluate_population("mst", scale=SCALE, cache=cache)
        assert isinstance(result, PopulationResult)
        assert [row["variant"] for row in result.rows] == list(VARIANT_NAMES)
        # the coordinator built the record once; every in-process job
        # found that same object
        assert result.shared_record_loads == 1
        assert result.record_sources == {"inherited": len(VARIANT_NAMES)}
        assert all(row["record_loads"] == 0 for row in result.rows)
        assert result.wall_seconds > 0

        # bit-identical ChipStats vs each variant's own replay
        assert [_stats(row) for row in result.rows] == _reference_rows()

    def test_row_for_lookup(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        result = evaluate_population("mst", scale=SCALE, cache=cache)
        assert result.row_for("migration")["variant"] == "migration"
        with pytest.raises(KeyError):
            result.row_for("warp-drive")


class TestParallelPopulation:
    def test_workers_share_one_record_load(self, tmp_path):
        runtime = _runtime(tmp_path, jobs=2)
        try:
            result = evaluate_population("mst", scale=SCALE, runtime=runtime)
        finally:
            runtime.close()
        assert result.shared_record_loads == 1
        # every forked worker inherited the coordinator's record
        assert result.record_sources == {"inherited": 3}
        assert all(row["record_loads"] == 0 for row in result.rows)

        # identical rows to each variant's own serial replay
        assert [_stats(row) for row in result.rows] == _reference_rows()

    def test_spawned_workers_read_the_sidecar(self, tmp_path):
        # A spawned worker inherits no coordinator record: it loads the
        # sidecar the coordinator built, and the rows stay identical.
        runtime = _runtime(tmp_path, jobs=2, start_method="spawn")
        try:
            result = evaluate_population("mst", scale=SCALE, runtime=runtime)
        finally:
            runtime.close()
        assert result.record_sources == {"sidecar": 3}
        assert all(row["record_loads"] == 1 for row in result.rows)

        assert [_stats(row) for row in result.rows] == _reference_rows()


class TestRecordKey:
    def test_deterministic_and_sensitive(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = record_key(cache, "mst", 0.05, None)
        assert key == record_key(cache, "mst", 0.05, None)
        assert key != record_key(cache, "mst", 0.1, None)
        assert key != record_key(cache, "mst", 0.05, 7)
        assert key != record_key(cache, "em3d", 0.05, None)
        # a code edit mints a new generation: old records unreachable
        other = ResultCache(root=tmp_path, code_version="0123456789abcdef")
        assert key != record_key(other, "mst", 0.05, None)


class TestSidecarFallback:
    def test_share_disabled_reads_the_sidecar(self, tmp_path):
        # A job outside any population has no coordinator record to
        # share: it reads the sidecar for itself.
        cache = ResultCache(root=tmp_path)
        ensure_l1_filter("mst", scale=SCALE, cache=cache)  # build sidecar
        drop_open_records()
        row = population_job("mst", "baseline", scale=SCALE)
        assert row["record_source"] == "sidecar"
        assert row["record_loads"] == 1
        assert row["l1_filter_cached"] is False


class TestBoundedCaches:
    def test_open_record_lru_evicts_and_recounts(self, tmp_path, monkeypatch):
        import repro.kernels.l1filter as l1filter

        monkeypatch.setattr(l1filter, "_RECORD_CACHE_CAP", 1)
        cache = ResultCache(root=tmp_path)
        ensure_l1_filter("mst", scale=0.02, cache=cache)
        ensure_l1_filter("mst", scale=0.03, cache=cache)
        drop_open_records()

        evictions = process_counter("l1filter.record_cache.evictions")
        hits = process_counter("l1filter.record_cache.hits")
        before_evictions = evictions.value
        ensure_l1_filter("mst", scale=0.02, cache=cache)  # load, remember
        ensure_l1_filter("mst", scale=0.03, cache=cache)  # load, evict 0.02
        assert evictions.value == before_evictions + 1
        before_hits = hits.value
        record_a, cached = ensure_l1_filter("mst", scale=0.03, cache=cache)
        record_b, _ = ensure_l1_filter("mst", scale=0.03, cache=cache)
        assert cached and record_a is record_b
        assert hits.value == before_hits + 2

    def test_precompute_memo_is_bounded(self, monkeypatch):
        import repro.kernels.specialize as specialize
        from repro.caches.hierarchy import CoreCacheConfig, SingleCoreHierarchy
        from repro.kernels.specialize import replay_hierarchy_specialized

        monkeypatch.setattr(specialize, "_PRECOMP_CAP", 1)
        record = _tiny_record()
        evictions = process_counter("kernels.precompute.evictions")
        before = evictions.value
        for l2_bytes in (32 * 1024, 64 * 1024):
            hierarchy = SingleCoreHierarchy(
                CoreCacheConfig(l2_bytes=l2_bytes)
            )
            replay_hierarchy_specialized(hierarchy, record)
        assert evictions.value > before
        memo = record.__dict__[specialize._PRECOMP_ATTR]
        assert len(memo) <= 1

    def test_precompute_memo_footprint(self):
        # Lines and slot columns are held as typed arrays, 8 + 4 bytes
        # per way per record (24 B for the 4-way L2), not Python int
        # lists (about 180 B).  A chip and a baseline of one L2 geometry
        # share the slot columns.
        import repro.kernels.specialize as specialize
        from repro.caches.hierarchy import SingleCoreHierarchy
        from repro.multicore.chip import ChipConfig, MultiCoreChip

        record = _tiny_record()
        chip = MultiCoreChip(ChipConfig())
        chip.run_filtered(record)
        SingleCoreHierarchy().run_filtered(record)
        ways = chip.l2s.caches[0].ways
        lines = record.__dict__[specialize._BASE_ATTR][0]
        memo = record.__dict__[specialize._PRECOMP_ATTR]
        columns = [
            column
            for key, entry in memo.items()
            if key[0] == "cols"
            for column in entry
        ]
        assert len(columns) == ways
        # memoryview refuses lists: the memo must hold flat buffers
        held = memoryview(lines).nbytes + sum(
            memoryview(column).nbytes for column in columns
        )
        assert 0 < held <= (8 + 4 * ways) * record.records
