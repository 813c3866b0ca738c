"""Population-batch evaluation: one record load, many variants.

Covers the :mod:`repro.kernels.sweep` contract end to end — the record
resolution order (inherited over fork → sidecar), the
``shared_record_loads == 1`` happy path in both serial and forked
multi-worker mode, spawned workers falling back to the sidecar, and row
identity against each variant replaying a freshly built record on its
own (``make_variant(v).run_filtered(record)``).  Also pins the record's
lifetime (the coordinator's record dies with the population) and the
footprint of the per-record precompute memo.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.kernels import sweep
from repro.kernels.l1filter import build_l1_filter, ensure_l1_filter
from repro.kernels.sweep import (
    PopulationResult,
    evaluate_population,
    population_job,
    record_key,
)
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
    """Private cache root per test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


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
        row = population_job("mst", "baseline", scale=SCALE)
        assert row["record_source"] == "sidecar"
        assert row["record_loads"] == 1
        assert row["l1_filter_cached"] is False


class TestRecordLifetime:
    """The coordinator's record, and the memo on it, live exactly as
    long as the population that loaded it."""

    @pytest.fixture
    def loaded(self, tmp_path, monkeypatch):
        """A sidecar for the coordinator to load, and a weak reference
        to each record it loads."""
        ensure_l1_filter("mst", scale=SCALE, cache=ResultCache(root=tmp_path))
        refs = []

        def ensure(*args, **kwargs):
            record, cached = ensure_l1_filter(*args, **kwargs)
            refs.append(weakref.ref(record))
            return record, cached

        monkeypatch.setattr(sweep, "ensure_l1_filter", ensure)
        return refs

    def test_serial(self, tmp_path, loaded):
        cache = ResultCache(root=tmp_path)
        result = evaluate_population("mst", scale=SCALE, cache=cache)
        assert result.shared_record_loads == 1
        del result
        gc.collect()
        (ref,) = loaded
        assert ref() is None

    def test_forked_workers(self, tmp_path, loaded):
        runtime = _runtime(tmp_path, jobs=2)
        try:
            result = evaluate_population("mst", scale=SCALE, runtime=runtime)
        finally:
            runtime.close()
        assert result.record_sources == {"inherited": 3}
        del result
        gc.collect()
        (ref,) = loaded
        assert ref() is None


class TestBoundedCaches:
    def test_precompute_memo_footprint(self):
        # The memo's line sequence is a view of ``record.lines``, not a
        # copy, and each slot column holds 2 bytes per record (the
        # 512-KB L2 has 8,192 slots): 8 B per record for the 4-way L2,
        # plus a write byte and a control byte.  A chip and a baseline
        # of one L2 geometry share the slot columns.
        import repro.kernels.specialize as specialize
        from repro.caches.hierarchy import SingleCoreHierarchy
        from repro.multicore.chip import ChipConfig, MultiCoreChip

        record = _tiny_record()
        chip = MultiCoreChip(ChipConfig())
        chip.run_filtered(record)
        SingleCoreHierarchy().run_filtered(record)
        ways = chip.l2s.caches[0].ways
        lines = record.__dict__[specialize._BASE_ATTR][0]
        assert np.shares_memory(np.asarray(lines), record.lines)
        assert list(lines) == record.lines.tolist()
        memo = record.__dict__[specialize._PRECOMP_ATTR]
        columns = [
            column
            for key, entry in memo.items()
            if key[0] == "cols"
            for column in entry
        ]
        assert len(columns) == ways
        # memoryview refuses lists: the memo must hold flat buffers
        assert all(memoryview(column).itemsize == 2 for column in columns)
        held = sum(memoryview(column).nbytes for column in columns)
        assert held == 2 * ways * record.records

    def test_slot_columns_widen_past_16_bits(self):
        # A geometry of more than 65,536 slots needs 32-bit columns.
        from repro.kernels.arrays import skew_slot_matrix
        from repro.kernels.specialize import _slot_cols

        record = _tiny_record(l2_span=1 << 20)
        for num_sets, ways, itemsize in ((1 << 14, 4, 2), (1 << 15, 4, 4)):
            columns = _slot_cols(record, num_sets, ways, {})
            matrix = skew_slot_matrix(record.lines, num_sets, ways)
            for w, column in enumerate(columns):
                assert memoryview(column).itemsize == itemsize
                assert list(column) == matrix[:, w].tolist()
