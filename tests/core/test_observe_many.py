"""``MigrationController.observe_many`` against its specification, the
``observe`` loop: the same subsets and the same deep controller state."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import ControllerConfig, MigrationController
from repro.core.sampling import SamplingPolicy
from repro.kernels import specialize
from tests.kernels.helpers import controller_state

#: (entries, ways) of a finite affinity store, or None for unbounded:
#: a 4-way store as in section 4.2, and a 2-way and a direct-mapped
#: one shaped unlike any chip's L2s (the chip kernel reuses the L2 slot
#: columns only for a store shaped like its L2s; the observe kernel
#: always probes the store's own)
STORES = [None, (16, 4), (64, 2), (8, 1)]

SAMPLING = {"full": SamplingPolicy.full(), "quarter": SamplingPolicy.quarter()}


def make_config(
    four_way, store, sampling, l2_filtering, exact, filter_bits=4, **extra
):
    return ControllerConfig(
        num_subsets=4 if four_way else 2,
        affinity_bits=8,
        filter_bits=filter_bits,
        x_window_size=6,
        y_window_size=3,
        sampling=SAMPLING[sampling],
        affinity_cache_entries=None if store is None else store[0],
        affinity_cache_ways=4 if store is None else store[1],
        l2_filtering=l2_filtering,
        exact_window_affinity=exact,
        **extra,
    )


config_strategy = st.builds(
    make_config,
    four_way=st.booleans(),
    store=st.sampled_from(STORES),
    sampling=st.sampled_from(["full", "quarter"]),
    l2_filtering=st.booleans(),
    exact=st.booleans(),
    filter_bits=st.sampled_from([4, 8]),
)


@st.composite
def stream_strategy(draw):
    """``(lines, l2_miss)`` arrays long enough to overflow the R-windows
    and the small stores: uniform random lines, or circular sweeps,
    which split and so make the filters transition."""
    length = draw(st.integers(min_value=0, max_value=400))
    span = draw(st.integers(min_value=1, max_value=90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        lines = rng.integers(0, span, length)
    else:
        lines = (np.arange(length) + int(rng.integers(0, span))) % span
    misses = rng.random(length) < draw(st.sampled_from([0.2, 0.5, 1.0]))
    return lines.astype(np.int64), misses


def spec_run(config, lines, misses):
    controller = MigrationController(config)
    subsets = [
        controller.observe(line, miss) for line, miss in zip(lines, misses)
    ]
    return subsets, controller


@settings(max_examples=120, deadline=None)
@given(
    config=config_strategy,
    stream=stream_strategy(),
    block=st.sampled_from([1, 2, 7, specialize._OBSERVE_BLOCK]),
)
def test_matches_observe(config, stream, block):
    lines, misses = stream
    expected, spec = spec_run(config, lines.tolist(), misses.tolist())
    controller = MigrationController(config)
    assert specialize._controller_blocker(controller) is None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specialize, "_OBSERVE_BLOCK", block)
        subsets = controller.observe_many(lines, misses)
    assert subsets.dtype == np.uint8
    assert subsets.tolist() == expected
    assert controller_state(controller) == controller_state(spec)


@settings(max_examples=60, deadline=None)
@given(
    config=config_strategy,
    stream=stream_strategy(),
    cut=st.integers(min_value=0, max_value=400),
)
def test_two_calls_equal_one(config, stream, cut):
    lines, misses = stream
    cut = min(cut, len(lines))
    whole = MigrationController(config)
    expected = whole.observe_many(lines, misses)
    split = MigrationController(config)
    first = split.observe_many(lines[:cut], misses[:cut])
    second = split.observe_many(lines[cut:], misses[cut:])
    assert np.concatenate((first, second)).tolist() == expected.tolist()
    assert controller_state(split) == controller_state(whole)


@settings(max_examples=30, deadline=None)
@given(config=config_strategy, stream=stream_strategy())
def test_default_flags_are_l2_misses(config, stream):
    lines, _ = stream
    expected, spec = spec_run(config, lines.tolist(), [True] * len(lines))
    controller = MigrationController(config)
    assert controller.observe_many(lines).tolist() == expected
    assert controller_state(controller) == controller_state(spec)


def _probed(config):
    from repro.obs import SimProbe

    controller = MigrationController(config)
    controller.attach_probe(SimProbe(name="observe-many", sample_interval=5))
    return controller


@settings(max_examples=30, deadline=None)
@given(
    config=config_strategy,
    stream=stream_strategy(),
    refused=st.sampled_from(["probe", "lru_window"]),
)
def test_refused_controllers_take_the_observe_loop(config, stream, refused):
    lines, misses = stream
    if refused == "lru_window":
        config = make_config(
            config.num_subsets == 4,
            None,
            "full",
            config.l2_filtering,
            config.exact_window_affinity,
            lru_window=True,
        )
        controller = MigrationController(config)
        spec = MigrationController(config)
    else:
        controller = _probed(config)
        spec = _probed(config)
    assert specialize._controller_blocker(controller) is not None
    expected = [
        spec.observe(line, miss)
        for line, miss in zip(lines.tolist(), misses.tolist())
    ]
    assert controller.observe_many(lines, misses).tolist() == expected
    assert controller_state(controller) == controller_state(spec)
    if refused == "probe":
        assert controller.probe.log.events == spec.probe.log.events


@pytest.mark.parametrize("store", [None, (16, 4), (64, 2)])
@pytest.mark.parametrize("four_way", [False, True])
def test_circular_sweep_transitions_and_evicts(four_way, store):
    """A case sure to transition often and, with the 16-entry store, to
    evict from it."""
    config = make_config(four_way, store, "full", False, True)
    lines = np.arange(3000, dtype=np.int64) % 20
    expected, spec = spec_run(config, lines.tolist(), [True] * len(lines))
    controller = MigrationController(config)
    assert controller.observe_many(lines).tolist() == expected
    assert controller_state(controller) == controller_state(spec)
    assert spec.stats.transitions > 100
    if store == (16, 4):
        assert spec.store.evictions > 100


def test_state_broken_by_hand_takes_the_observe_loop():
    """A filter moved behind the controller's back breaks the
    previous-subset invariant the kernel relies on."""
    config = ControllerConfig(num_subsets=2, filter_bits=8, affinity_bits=6)
    controller = MigrationController(config)
    spec = MigrationController(config)
    for c in (controller, spec):
        c.filter_x.reset(-5)
    assert specialize._controller_blocker(controller) is not None
    lines = np.arange(50, dtype=np.int64) % 17
    expected = [spec.observe(line) for line in lines.tolist()]
    assert controller.observe_many(lines).tolist() == expected
    assert controller_state(controller) == controller_state(spec)


def test_flag_count_must_match():
    controller = MigrationController()
    with pytest.raises(ValueError):
        controller.observe_many([1, 2, 3], [True])


def test_empty_stream():
    controller = MigrationController()
    subsets = controller.observe_many([])
    assert subsets.dtype == np.uint8
    assert len(subsets) == 0
    assert controller.stats.references == 0
