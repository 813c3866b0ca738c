"""The population contract: two rounds of plain jobs over one sidecar.

:func:`~repro.experiments.variants.run_population` runs the workload's
l1filter job, which simulates the L1s once and leaves the record's
sidecar, then one job per variant that reads that sidecar for itself
(``ensure_l1_filter``) and replays it.  Covered here: rows identical to
each variant replaying a freshly built record on its own
(``make_variant(v).run_filtered(record)``), serially and over forked or
spawned workers; each row's ``record_source`` as its own job found the
record; and that the coordinating process never materialises a record.
"""

import gc
import weakref

import pytest

from repro.experiments.variants import (
    VARIANT_NAMES,
    PopulationResult,
    make_variant,
    population_job,
    run_population,
)
from repro.kernels import l1filter
from repro.kernels.l1filter import build_l1_filter
from repro.runtime import EventBus, ExperimentRuntime, ResultCache, RuntimeConfig
from repro.runtime import scheduler

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

#: records a cold population materialises: the l1filter job's build
#: and one sidecar read per variant job
COLD_LOADS = 1 + len(VARIANT_NAMES)


@pytest.fixture(autouse=True)
def _pristine(tmp_path, monkeypatch):
    """Private cache root per test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def _runtime(root, jobs=1):
    return ExperimentRuntime(
        config=RuntimeConfig(jobs=jobs),
        cache=ResultCache(root=root),
        bus=EventBus([]),
    )


def _population(runtime):
    """A population of mst over ``runtime`` (``None``: in process)."""
    try:
        return run_population("mst", scale=SCALE, runtime=runtime)
    finally:
        if runtime is not None:
            runtime.close()


def _stats(row):
    return {key: row[key] for key in STAT_KEYS}


def _reference_rows():
    """Each variant's own replay of a freshly built mst record: the
    rows a population must reproduce bit for bit."""
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


class TestSerialPopulation:
    def test_rows_match_the_per_job_sweep(self, tmp_path, monkeypatch):
        # In process and over two forked workers, each from an empty
        # cache: the l1filter job builds the record and every variant
        # job reads the sidecar it left.
        reference = _reference_rows()
        for jobs in (None, 2):
            root = tmp_path / f"jobs-{jobs}"
            monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
            result = _population(None if jobs is None else _runtime(root, jobs))
            assert isinstance(result, PopulationResult)
            assert [row["variant"] for row in result.rows] == list(VARIANT_NAMES)
            assert result.shared_record_loads == COLD_LOADS
            assert result.record_sources == {"sidecar": len(VARIANT_NAMES)}
            assert all(row["l1_filter_cached"] for row in result.rows)
            assert result.wall_seconds > 0

            # bit-identical ChipStats vs each variant's own replay
            assert [_stats(row) for row in result.rows] == reference


class TestParallelPopulation:
    def test_spawned_workers_read_the_sidecar(self, tmp_path, monkeypatch):
        # A spawned worker reads the sidecar like a forked one, and the
        # rows stay identical.
        monkeypatch.setattr(scheduler, "START_METHOD", "spawn")
        result = _population(_runtime(tmp_path, jobs=2))
        assert result.record_sources == {"sidecar": len(VARIANT_NAMES)}
        assert result.shared_record_loads == COLD_LOADS

        assert [_stats(row) for row in result.rows] == _reference_rows()


class TestSidecarFallback:
    """No record is shared: a variant job finds its own."""

    def test_share_disabled_reads_the_sidecar(self):
        # With no sidecar the job builds the record (and leaves the
        # sidecar); the next one reads it.  Each row says which.
        built = population_job("mst", "baseline", scale=SCALE)
        assert built["record_source"] == "built"
        assert built["l1_filter_cached"] is False
        read = population_job("mst", "baseline", scale=SCALE)
        assert read["record_source"] == "sidecar"
        assert read["l1_filter_cached"] is True
        assert _stats(read) == _stats(built)


class TestRecordLifetime:
    """A record lives only inside the job that materialised it: the
    coordinating process holds none of its own, and what in-process
    jobs materialise is freed once the population returns."""

    @pytest.fixture
    def materialised(self, monkeypatch):
        """A weak reference to each record this process loads or
        builds; forked workers append to their own copies."""
        refs = []
        real_load = l1filter.L1FilterRecord.load.__func__
        real_build = l1filter.build_l1_filter_from_chunks

        def load(cls, path):
            record = real_load(cls, path)
            refs.append(weakref.ref(record))
            return record

        def build(*args, **kwargs):
            record = real_build(*args, **kwargs)
            refs.append(weakref.ref(record))
            return record

        monkeypatch.setattr(l1filter.L1FilterRecord, "load", classmethod(load))
        monkeypatch.setattr(l1filter, "build_l1_filter_from_chunks", build)
        return refs

    def test_serial(self, materialised):
        result = _population(None)
        assert result.shared_record_loads == COLD_LOADS
        assert len(materialised) == COLD_LOADS
        gc.collect()
        assert all(ref() is None for ref in materialised)

    def test_forked_workers(self, tmp_path, materialised):
        result = _population(_runtime(tmp_path, jobs=2))
        # The workers built the record once and read it three times;
        # the coordinator materialised none.
        assert result.shared_record_loads == COLD_LOADS
        assert result.record_sources == {"sidecar": len(VARIANT_NAMES)}
        assert materialised == []
