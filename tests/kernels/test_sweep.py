"""The sweep guarantee: one L1 simulation shared by every variant.

:func:`~repro.experiments.variants.run_population` is the only sweep
(``run_all --population`` and ``perfbench``'s ``sweep-warm`` call it);
these tests pin its end-to-end contract through a runtime and without
one.  Where each job finds its record, and row identity, are
``test_population.py``'s.
"""

import pytest

from repro.runtime import EventBus, ExperimentRuntime, ResultCache, RuntimeConfig


@pytest.fixture()
def runtime(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return ExperimentRuntime(
        config=RuntimeConfig(jobs=1),
        cache=ResultCache(root=tmp_path),
        bus=EventBus([]),
    )


def test_three_variant_sweep_simulates_l1_once(
    runtime, tmp_path, monkeypatch
):
    import repro.experiments.variants as variants
    import repro.kernels.l1filter as l1filter
    from repro.experiments.variants import VARIANT_NAMES, run_population

    builds = []
    real_filtered = l1filter._filtered

    def counting_filtered(*args):
        builds.append(1)
        return real_filtered(*args)

    # every L1-filter build, whole or in batches, goes through it
    monkeypatch.setattr(l1filter, "_filtered", counting_filtered)

    def sidecar_identity():
        (sidecar,) = tmp_path.rglob("*.l1f.npz")
        stat = sidecar.stat()
        return sidecar, stat.st_ino, stat.st_mtime_ns

    seen = []
    real_job = variants.population_job

    def stat_then_run(**kwargs):
        seen.append(sidecar_identity())
        return real_job(**kwargs)

    # the runtime resolves each variant job's function by name
    monkeypatch.setattr(variants, "population_job", stat_then_run)
    result = run_population("mst", scale=0.05, runtime=runtime)
    rows = result.rows
    assert [row["variant"] for row in rows] == list(VARIANT_NAMES)
    # the L1 stage ran exactly once, in the l1filter job; the runtime
    # then executed one replay job per variant
    assert len(builds) == 1
    assert result.shared_record_loads == 1 + len(VARIANT_NAMES)
    assert runtime.stats.executed == 1 + len(VARIANT_NAMES)
    assert runtime.stats.cache_hits == 0
    # every variant read the sidecar the l1filter job left, and left it
    # as it was
    assert all(row["l1_filter_cached"] for row in rows)
    assert seen == [sidecar_identity()] * len(VARIANT_NAMES)
    # migration variant equals baseline or better machinery: same L1
    # miss stream means identical l2_accesses everywhere
    assert len({row["l2_accesses"] for row in rows}) == 1


def test_warm_sweep_is_all_cache_hits(runtime, tmp_path):
    from repro.experiments.variants import VARIANT_NAMES, run_population

    run_population("mst", scale=0.05, runtime=runtime)
    warm = ExperimentRuntime(
        config=RuntimeConfig(jobs=1),
        cache=ResultCache(root=tmp_path),
        bus=EventBus([]),
    )
    rows = run_population("mst", scale=0.05, runtime=warm).rows
    assert warm.stats.executed == 0
    # the l1filter job and every variant job
    assert warm.stats.cache_hits == 1 + len(VARIANT_NAMES)
    assert all(row["l1_filter_cached"] for row in rows)


def test_fully_cached_population_reads_no_sidecar(runtime, tmp_path, monkeypatch):
    import repro.kernels.l1filter as l1filter
    from repro.experiments.variants import VARIANT_NAMES, run_population

    first = run_population("mst", scale=0.05, runtime=runtime)
    loads = []
    real_read = l1filter._read_sidecar

    def counting_read(path):
        loads.append(path)
        return real_read(path)

    # every sidecar read, whole or in slices, goes through it
    monkeypatch.setattr(l1filter, "_read_sidecar", counting_read)

    def rerun(**config):
        again = ExperimentRuntime(
            config=RuntimeConfig(jobs=1, **config),
            cache=ResultCache(root=tmp_path),
            bus=EventBus([]),
        )
        return again, run_population("mst", scale=0.05, runtime=again)

    warm, result = rerun()
    assert warm.stats.cache_hits == 1 + len(VARIANT_NAMES)
    assert loads == []
    assert result.shared_record_loads == 0
    assert result.record_sources == {"cached": len(VARIANT_NAMES)}
    assert result.rows == first.rows
    # Jobs that run read the sidecar for themselves: the l1filter job
    # and every variant job.
    uncached, result = rerun(use_cache=False)
    assert uncached.stats.executed == 1 + len(VARIANT_NAMES)
    assert len(loads) == 1 + len(VARIANT_NAMES)
    assert result.shared_record_loads == 1 + len(VARIANT_NAMES)
    assert result.rows == first.rows


def test_corrupt_cached_row_reads_the_sidecar_itself(runtime, tmp_path):
    # The l1filter job and two variant jobs are served from the cache;
    # the one job whose artifact turns out corrupt runs and reads the
    # sidecar.
    from repro.experiments.variants import (
        VARIANT_NAMES,
        population_jobs,
        run_population,
    )

    first = run_population("mst", scale=0.05, runtime=runtime)
    cache = ResultCache(root=tmp_path)
    cache.path_for(population_jobs("mst", scale=0.05)[0]).write_text("{")
    again = ExperimentRuntime(
        config=RuntimeConfig(jobs=1), cache=cache, bus=EventBus([])
    )
    result = run_population("mst", scale=0.05, runtime=again)
    assert again.stats.executed == 1
    assert result.shared_record_loads == 1
    assert result.record_sources == {
        "cached": len(VARIANT_NAMES) - 1,
        "sidecar": 1,
    }
    # The rerun row says where its own record came from; its counters
    # are the cached row's.
    where = ("record_source", "l1_filter_cached")

    def counters(rows):
        return [
            {key: value for key, value in row.items() if key not in where}
            for row in rows
        ]

    assert counters(result.rows) == counters(first.rows)


def test_serial_sweep_without_runtime(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.experiments.variants import render_population, run_population

    result = run_population("mst", scale=0.05)
    rendered = render_population(result)
    assert "baseline" in rendered and "no-l2-filter" in rendered
    # the l1filter job built the record; every variant job read its
    # sidecar
    assert "record loads: 4 (sources: 3× sidecar" in rendered
    assert all(row["l1_filter_cached"] for row in result.rows)


def test_sidecar_lives_under_the_cache_dir_not_the_runtime_root(
    tmp_path, monkeypatch
):
    # A runtime rooted elsewhere keeps the payloads; the sidecar, like
    # the Olden trace memo, lives under $REPRO_CACHE_DIR.
    from repro.experiments.variants import VARIANT_NAMES, run_population

    cache_dir, elsewhere = tmp_path / "cache-dir", tmp_path / "elsewhere"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    runtime = ExperimentRuntime(
        config=RuntimeConfig(jobs=1),
        cache=ResultCache(root=elsewhere),
        bus=EventBus([]),
    )
    result = run_population("mst", scale=0.05, runtime=runtime)
    assert result.record_sources == {"sidecar": len(VARIANT_NAMES)}
    assert len(list(cache_dir.rglob("*.l1f.npz"))) == 1
    assert list(cache_dir.rglob("traces/olden-mst-*.npz"))
    assert list(elsewhere.rglob("*.l1f.npz")) == []


def test_unknown_variant_rejected():
    from repro.experiments.variants import make_variant

    with pytest.raises(ValueError):
        make_variant("warp-drive")
