"""The sweep guarantee: one L1 simulation shared by every variant.

:func:`~repro.experiments.variants.run_population` is the only sweep
(``run_all --population`` and ``perfbench``'s ``sweep-warm`` call it);
these tests pin its end-to-end contract through a runtime and without
one.  Record resolution and row identity are ``test_population.py``'s.
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


def test_three_variant_sweep_simulates_l1_once(runtime, monkeypatch):
    import repro.kernels.l1filter as l1filter
    from repro.experiments.variants import VARIANT_NAMES, run_population

    builds = []
    real_build = l1filter.build_l1_filter

    def counting_build(*args, **kwargs):
        builds.append(1)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(l1filter, "build_l1_filter", counting_build)
    result = run_population("mst", scale=0.05, runtime=runtime)
    rows = result.rows
    assert [row["variant"] for row in rows] == list(VARIANT_NAMES)
    # the L1 stage ran exactly once, in the coordinator; the runtime
    # executed one replay job per variant
    assert len(builds) == 1
    assert result.shared_record_loads == 1
    assert runtime.stats.executed == len(VARIANT_NAMES)
    assert runtime.stats.cache_hits == 0
    # every variant replayed the coordinator's record, not a fresh one
    assert all(row["l1_filter_cached"] for row in rows)
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
    assert warm.stats.cache_hits == len(VARIANT_NAMES)
    assert all(row["l1_filter_cached"] for row in rows)


def test_serial_sweep_without_runtime(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.experiments.variants import render_population, run_population

    result = run_population("mst", scale=0.05)
    rendered = render_population(result)
    assert "baseline" in rendered and "no-l2-filter" in rendered
    # the coordinator built the record; every variant reused it
    assert "record loads: 1 (sources: 3× inherited" in rendered
    assert all(row["l1_filter_cached"] for row in result.rows)


def test_unknown_variant_rejected():
    from repro.experiments.variants import make_variant

    with pytest.raises(ValueError):
        make_variant("warp-drive")
