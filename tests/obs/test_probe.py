"""The SimProbe attached to real simulator components."""

import pytest

from repro.caches.hierarchy import SingleCoreHierarchy
from repro.core.controller import MigrationController
from repro.multicore.chip import ChipConfig, MultiCoreChip
from repro.obs import events as ev
from repro.obs.probe import SimProbe
from repro.traces.synthetic import HalfRandom, behavior_trace


def _trace(count, num_lines=20_000, burst=5_000, seed=11):
    """A working set (~1.3 MB) larger than one 512-KB L2 but smaller
    than four — the configuration migration is designed to exploit."""
    return behavior_trace(HalfRandom(num_lines, burst=burst, seed=seed), count)


@pytest.fixture(scope="module")
def chip_probe():
    probe = SimProbe(name="test", sample_interval=500)
    chip = MultiCoreChip(ChipConfig(), probe=probe)
    chip.run(_trace(100_000))
    return chip, probe


class TestChipInstrumentation:
    def test_clock_tracks_references(self, chip_probe):
        chip, probe = chip_probe
        assert probe.now == chip.stats.accesses == 100_000

    def test_migration_events_match_chip_stats(self, chip_probe):
        chip, probe = chip_probe
        commits = probe.log.of_kind(ev.MIGRATION_COMMIT)
        assert chip.stats.migrations > 0
        assert len(commits) == chip.stats.migrations
        assert probe.registry.counter("migrations").value == chip.stats.migrations
        for event in commits:
            assert event.args["from_core"] != event.args["to_core"]
            assert event.args["penalty_cycles"] > 0

    def test_at_least_three_distinct_event_kinds(self, chip_probe):
        # The acceptance bar for any instrumented run worth tracing.
        _, probe = chip_probe
        assert len(probe.log.kinds()) >= 3

    def test_filter_flips_and_rollovers_recorded(self, chip_probe):
        _, probe = chip_probe
        kinds = probe.log.kinds()
        assert kinds.get(ev.FILTER_FLIP, 0) > 0
        assert kinds.get(ev.WINDOW_ROLLOVER, 0) > 0
        flip = probe.log.of_kind(ev.FILTER_FLIP)[0]
        assert flip.args["sign"] in (-1, 0, 1)
        assert flip.args["filter"]

    def test_series_sampled_on_interval(self, chip_probe):
        _, probe = chip_probe
        samples = probe.registry.series("chip.active_core").samples
        assert samples
        stride = probe.registry.series("chip.active_core").stride
        assert all(t % 500 == 0 for t, _ in samples) or stride > 1

    def test_report_snapshot(self, chip_probe):
        chip, probe = chip_probe
        report = probe.report(workload="synthetic", run="chip")
        assert report.meta["references"] == 100_000
        assert report.meta["num_cores"] == chip.config.num_cores
        assert report.meta["run"] == "chip"
        assert report.meta["chip_stats"]["migrations"] == chip.stats.migrations
        assert report.metrics["migrations"]["value"] == chip.stats.migrations
        assert len(report.events) == len(probe.log.events)


class TestUninstrumentedPaths:
    def test_chip_runs_identically_without_probe(self):
        plain = MultiCoreChip(ChipConfig())
        plain.run(_trace(20_000))
        probed = MultiCoreChip(ChipConfig(), probe=SimProbe())
        probed.run(_trace(20_000))
        assert plain.stats.to_dict() == probed.stats.to_dict()

    def test_hierarchy_accepts_probe(self):
        probe = SimProbe(sample_interval=100)
        hierarchy = SingleCoreHierarchy(probe=probe)
        for access in _trace(5_000):
            hierarchy.access(access)
        assert probe.now == 5_000
        assert probe.registry.series("baseline.l2_miss_rate").samples

    def test_controller_standalone_advances_clock(self):
        probe = SimProbe()
        controller = MigrationController()
        controller.attach_probe(probe)
        for access in _trace(30_000):
            controller.observe(access.address // 64)
        assert probe.now > 0
        assert probe.registry.counter("window.rollovers").value > 0


class TestProbeOnTwoModels:
    def test_rates_kept_per_model(self):
        # One probe on a 4-core chip and an idle baseline hierarchy,
        # sampling every 100 of 2,000 references.  Each model's rates
        # must come from its own previous counts: the idle baseline
        # reads 0, and the chip reads what a probe of its own reads
        # (a shared count made them -0.99, -1.99, ... and the chip's
        # cumulative 0.99, 1.99, ...).
        shared = SimProbe(sample_interval=100)
        chip = MultiCoreChip(ChipConfig(), probe=shared)
        SingleCoreHierarchy(probe=shared)
        alone = SimProbe(sample_interval=100)
        reference = MultiCoreChip(ChipConfig(), probe=alone)
        for access in _trace(2_000):
            chip.access(access)
            reference.access(access)
        for name in ("baseline.l2_miss_rate", "baseline.l1_miss_rate"):
            samples = shared.registry.series(name).samples
            assert len(samples) == 20
            assert {rate for _t, rate in samples} == {0.0}
        for name in ("chip.l2_miss_rate", "chip.l1_miss_rate"):
            samples = shared.registry.series(name).samples
            assert samples == alone.registry.series(name).samples
            assert len(samples) == 20
            assert all(0 <= rate <= 1 for _t, rate in samples)
        assert any(
            rate > 0
            for _t, rate in shared.registry.series("chip.l2_miss_rate").samples
        )


class TestStormDetection:
    def test_clustered_evictions_fire_one_storm(self):
        probe = SimProbe(storm_window=100, storm_threshold=4)
        probe.on_access(10)
        for i in range(4):
            probe.on_l2_eviction(core=0, line=i, dirty=False)
        storms = probe.log.of_kind(ev.L2_EVICTION_STORM)
        assert len(storms) == 1  # burst collapses to one event
        assert storms[0].args["evictions"] == 4
        assert probe.registry.counter("l2.evictions").value == 4

    def test_spread_out_evictions_do_not_fire(self):
        probe = SimProbe(storm_window=10, storm_threshold=3)
        for t in (0, 100, 200, 300):
            probe.on_access(t)
            probe.on_l2_eviction(core=0, line=1, dirty=True)
        assert not probe.log.of_kind(ev.L2_EVICTION_STORM)

    def test_rejects_bad_sample_interval(self):
        with pytest.raises(ValueError):
            SimProbe(sample_interval=0)
