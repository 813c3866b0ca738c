"""Telemetry at kernel speed: probed replays through the generated
kernels.

A chip or baseline hierarchy carrying the :class:`SimProbe` its
constructor attached replays a record through the telemetry variant of
its kernel, and the probe then replays the kernel's raw log through its
hooks (:meth:`SimProbe.replay_log`).  The differential tests in
``test_batch_differential.py`` compare the whole report against the
per-access model on every chip shape; this suite pins the rest: which
probes the kernels take (and that probe-free models keep the plain
kernel), that other probes are refused and left to ``run()``, the
per-access path that serves every model (the generic path below), that
telemetry leaves the simulated state alone, that the reference clock
carries on across calls, and that Table 2's obs artifacts are
byte-identical to the per-access model's on real workloads.
"""

import numpy as np
import pytest

from repro.caches.hierarchy import SingleCoreHierarchy
from repro.kernels.l1filter import build_l1_filter
from repro.multicore.chip import ChipConfig, MultiCoreChip
from repro.obs import SimProbe, save_report
from tests.kernels.helpers import (
    PROBE_SHAPES,
    SMALL_CACHES,
    assert_refused,
    chip_state,
    eventful_trace,
    hierarchy_state,
    per_access,
    probe_report,
)


def _model(kind, probe=None):
    if kind == "chip":
        return MultiCoreChip(ChipConfig(caches=SMALL_CACHES), probe=probe)
    return SingleCoreHierarchy(SMALL_CACHES, probe=probe)


class TestDispatch:
    @pytest.mark.parametrize("kind", ["chip", "hierarchy"])
    def test_attached_sim_probe_takes_the_kernel(self, kind):
        probe = SimProbe()
        model = _model(kind, probe)
        model.run_arrays(*eventful_trace(3))
        assert probe.now == model.stats.accesses

    @pytest.mark.parametrize("kind", ["chip", "hierarchy"])
    def test_other_probes_keep_the_generic_loop(self, kind):
        # A probe the kernels cannot log for is refused; run() serves
        # the model, per access.
        class CustomProbe(SimProbe):
            pass

        arrays = eventful_trace(3)
        assert_refused(
            lambda: _model(kind, CustomProbe()),
            arrays,
            "CustomProbe, not a SimProbe",
        )

        def shared_probe_model():
            # a probe bound to a second model samples that model too
            shared = SimProbe()
            _model("hierarchy" if kind == "chip" else "chip", shared)
            return _model(kind, shared)

        assert_refused(shared_probe_model, arrays, "bound to a second model")

    def test_probe_free_models_take_the_plain_kernel(self, monkeypatch):
        # The telemetry variant costs more per replay than the plain
        # kernel (docs/performance.md); a model without a probe must
        # not pay for it.
        import repro.kernels.specialize as specialize

        chip_kernel = specialize._kernel_for
        hierarchy_kernel = specialize._hier_kernel_for
        flags = []
        monkeypatch.setattr(
            specialize,
            "_kernel_for",
            lambda sig: flags.append(sig[-1]) or chip_kernel(sig),
        )
        monkeypatch.setattr(
            specialize,
            "_hier_kernel_for",
            lambda ways, telemetry=False: flags.append(telemetry)
            or hierarchy_kernel(ways, telemetry),
        )
        arrays = eventful_trace(3)
        for probed in (False, True):
            for kind in ("chip", "hierarchy"):
                probe = SimProbe() if probed else None
                _model(kind, probe).run_arrays(*arrays)
        assert flags == [False, False, True, True]


@pytest.mark.parametrize("shape", sorted(PROBE_SHAPES))
def test_telemetry_leaves_chip_state_identical(shape):
    config = PROBE_SHAPES[shape]
    record = build_l1_filter(*eventful_trace(5), config=config.caches)
    plain = MultiCoreChip(config)
    plain.run_filtered(record)
    probed = MultiCoreChip(config, probe=SimProbe())
    probed.run_filtered(record)
    assert probed.stats == plain.stats
    assert chip_state(probed) == chip_state(plain)


def test_telemetry_leaves_hierarchy_state_identical():
    record = build_l1_filter(*eventful_trace(5), config=SMALL_CACHES)
    plain = SingleCoreHierarchy(SMALL_CACHES)
    plain.run_filtered(record)
    probed = SingleCoreHierarchy(SMALL_CACHES, probe=SimProbe())
    probed.run_filtered(record)
    assert hierarchy_state(probed) == hierarchy_state(plain)


@pytest.mark.parametrize("kind", ["chip", "hierarchy"])
@pytest.mark.parametrize("path", ["kernel", "generic"])
def test_probe_clock_carries_on_across_calls(kind, path):
    # Two consecutive calls over the halves of a trace report exactly
    # what per-access simulation of the whole trace reports: the second
    # call's events count on from the first call's references, whether
    # the first ran through the kernel or per access.
    arrays = eventful_trace(11, n=4000)
    whole = SimProbe(sample_interval=7)
    per_access(_model(kind, whole), arrays)

    probe = SimProbe(sample_interval=7)
    model = _model(kind, probe)
    half = len(arrays[0]) // 2
    first = [array[:half] for array in arrays]
    if path == "kernel":
        model.run_arrays(*first)
    else:
        per_access(model, first)
    model.run_arrays(*(array[half:] for array in arrays))
    assert probe.now == len(arrays[0])
    assert probe_report(probe) == probe_report(whole)


def _table2_artifacts(directory, name, replay):
    """``run_table2_for``'s two instrumented passes, each model driven
    by ``replay``, saved as its artifact triples."""
    baseline_probe = SimProbe(name="baseline")
    replay(SingleCoreHierarchy(probe=baseline_probe))
    chip_probe = SimProbe(name="chip")
    replay(MultiCoreChip(ChipConfig(), probe=chip_probe))
    save_report(
        baseline_probe.report(workload=name, run="baseline"),
        directory,
        f"table2-{name}-baseline",
    )
    save_report(
        chip_probe.report(workload=name, run="chip"),
        directory,
        f"table2-{name}-chip",
    )
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("name, scale", [("179.art", 0.01), ("mst", 0.1)])
def test_table2_obs_artifacts_match_the_generic_loop(tmp_path, name, scale):
    # The generic loop is run(), per access.
    from repro.experiments.workloads import workload

    arrays = workload(name, scale=scale).arrays()
    record = build_l1_filter(*arrays)
    kernel = _table2_artifacts(
        tmp_path / "kernel", name, lambda model: model.run_filtered(record)
    )
    generic = _table2_artifacts(
        tmp_path / "generic", name, lambda model: per_access(model, arrays)
    )
    assert len(kernel) == 6
    assert kernel == generic


def test_controller_references_can_lead_the_clock():
    # A controller that observed references before joining the chip
    # reports transitions and rollovers at its own, larger reference
    # counts, which move the probe clock past the chip's; the telemetry
    # kernel's log must reproduce that too.
    from repro.core.controller import ControllerConfig, MigrationController

    arrays = eventful_trace(2)
    record = build_l1_filter(*arrays, config=SMALL_CACHES)
    reports = {}
    for mode in ("seed", "filtered"):
        controller = MigrationController(ControllerConfig.four_core())
        # Under L2 filtering, references that hit the L2 never update a
        # filter: the controller counts them and keeps subset 0.
        controller.observe_many(
            np.arange(20_000), l2_miss=np.zeros(20_000, dtype=bool)
        )
        probe = SimProbe(sample_interval=7)
        chip = MultiCoreChip(
            ChipConfig(caches=SMALL_CACHES), controller=controller, probe=probe
        )
        if mode == "seed":
            per_access(chip, arrays)
        else:
            chip.run_filtered(record)
        reports[mode] = probe_report(probe)
        assert probe.now > chip.stats.accesses
    assert reports["filtered"] == reports["seed"]


@pytest.mark.parametrize("storm_window, storm_threshold", [(1, 3), (9, 16)])
def test_storms_count_on_the_led_clock(storm_window, storm_threshold):
    # Once the controller's references have moved the clock past the
    # chip's, every eviction lands on that clock until the chip catches
    # up, so narrow windows fill with evictions whose reference numbers
    # lie far apart: the replay must find storms on the clock, also when
    # a second call starts behind the clock the first one left.
    from repro.core.controller import ControllerConfig, MigrationController

    arrays = eventful_trace(2)
    record = build_l1_filter(*arrays, config=SMALL_CACHES)
    reports = {}
    for mode in ("seed", "filtered", "halves"):
        controller = MigrationController(ControllerConfig.four_core())
        controller.observe_many(
            np.arange(20_000), l2_miss=np.zeros(20_000, dtype=bool)
        )
        probe = SimProbe(
            sample_interval=7,
            storm_window=storm_window,
            storm_threshold=storm_threshold,
        )
        chip = MultiCoreChip(
            ChipConfig(caches=SMALL_CACHES), controller=controller, probe=probe
        )
        if mode == "seed":
            per_access(chip, arrays)
        elif mode == "filtered":
            chip.run_filtered(record)
        else:
            for half in (slice(None, 1500), slice(1500, None)):
                chip.run_arrays(*(array[half] for array in arrays))
        reports[mode] = probe_report(probe)
    assert reports["filtered"] == reports["seed"]
    assert reports["halves"] == reports["seed"]
