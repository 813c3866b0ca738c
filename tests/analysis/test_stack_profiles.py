"""The section 4.1 stack-profile experiment."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import stack_profiles
from repro.analysis.stack_profiles import (
    PAPER_CACHE_SIZE_LABELS,
    PAPER_CACHE_SIZES_LINES,
    StackExperiment,
    run_stack_experiment,
)
from repro.caches import lru_stack
from repro.caches.lru_stack import LruStack, StackProfile
from repro.core.controller import ControllerConfig, MigrationController
from repro.traces.synthetic import Circular, UniformRandom
from tests.kernels.helpers import controller_state


class TestPaperSizes:
    def test_sizes_are_16k_to_16m(self):
        assert PAPER_CACHE_SIZES_LINES[0] * 64 == 16 * 1024
        assert PAPER_CACHE_SIZES_LINES[-1] * 64 == 16 * 1024 * 1024
        assert len(PAPER_CACHE_SIZES_LINES) == len(PAPER_CACHE_SIZE_LABELS)


class TestExperiment:
    def test_reference_counts(self):
        result = run_stack_experiment(Circular(100).addresses(5000))
        assert result.references == 5000
        assert result.p1.total == 5000
        assert result.p4.total == 5000

    def test_p4_splits_references_across_stacks(self):
        result = run_stack_experiment(Circular(2000).addresses(400_000))
        populated = sum(1 for p in result.per_stack if p.total > 0)
        assert populated >= 2

    def test_splittable_circular_reduces_p4(self):
        """Circular(2000) = 125 KB: p1 misses a 64 KB cache badly, the
        4-way split fits each quarter into 64 KB (1024 lines)."""
        result = run_stack_experiment(Circular(2000).addresses(600_000))
        p1_64k = result.p1.fraction_deeper(1024)
        p4_64k = result.p4.fraction_deeper(1024)
        assert p1_64k > 0.9  # 2000 lines >> 1024
        assert p4_64k < 0.5  # quarters (~500 lines) fit

    def test_random_set_shows_no_gap(self):
        result = run_stack_experiment(
            UniformRandom(2000, seed=4).addresses(300_000)
        )
        p1_curve, p4_curve = result.curves()
        for p1_value, p4_value in zip(p1_curve, p4_curve):
            assert p4_value >= p1_value - 0.05

    def test_transition_frequency_reported(self):
        result = run_stack_experiment(Circular(2000).addresses(100_000))
        assert 0.0 <= result.transition_frequency <= 1.0

    def test_custom_config(self):
        config = ControllerConfig(num_subsets=2, x_window_size=32)
        result = run_stack_experiment(
            Circular(500).addresses(50_000), config=config
        )
        assert len(result.per_stack) == 2


def per_reference_experiment(lines, config):
    """The experiment one reference at a time: LruStack, observe and
    StackProfile.record, in the paper's order."""
    controller = MigrationController(config)
    single = LruStack()
    split = [LruStack() for _ in range(config.num_subsets)]
    p1 = StackProfile()
    per_stack = [StackProfile() for _ in range(config.num_subsets)]
    for line in lines:
        p1.record(single.access(line))
        subset = controller.observe(line)
        per_stack[subset].record(split[subset].access(line))
    return p1, per_stack, controller


def histogram(profile):
    return (profile.total, profile.cold, dict(profile._histogram))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(0, 600),
    span=st.integers(1, 60),
    four_way=st.booleans(),
    cuts=st.lists(st.integers(0, 600), max_size=5),
    batch=st.integers(1, 7),
    chunk=st.integers(1, 7),
)
def test_experiment_matches_per_reference_run(
    seed, length, span, four_way, cuts, batch, chunk
):
    """Fed in any slices, with any batch and depth-chunk sizes, the
    array experiment equals the per-reference one."""
    rng = np.random.default_rng(seed)
    lines = np.where(
        rng.random(length) < 0.5,
        np.arange(length) % span,
        rng.integers(0, span, length),
    )
    config = ControllerConfig(
        num_subsets=4 if four_way else 2,
        affinity_bits=8,
        filter_bits=4,
        x_window_size=6,
        y_window_size=3,
    )
    p1, per_stack, controller = per_reference_experiment(lines.tolist(), config)
    experiment = StackExperiment(config)
    bounds = [0] + sorted(min(c, length) for c in cuts) + [length]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stack_profiles, "_BATCH", batch)
        patch.setattr(lru_stack, "_DEPTH_CHUNK", chunk)
        for start, end in zip(bounds, bounds[1:]):
            experiment.feed(lines[start:end])
        result = experiment.result("mix")
    assert result.references == length
    assert histogram(result.p1) == histogram(p1)
    assert [histogram(p) for p in result.per_stack] == [
        histogram(p) for p in per_stack
    ]
    assert histogram(result.p4) == histogram(StackProfile.merge_all(per_stack))
    assert controller_state(experiment.controller) == controller_state(controller)


def test_whole_stream_and_generator_inputs_agree():
    lines = list(Circular(300).addresses(5000))
    from_list = run_stack_experiment(lines)
    from_generator = run_stack_experiment(iter(lines))
    from_array = run_stack_experiment(np.array(lines))
    for other in (from_generator, from_array):
        assert other.curves() == from_list.curves()
        assert other.transition_frequency == from_list.transition_frequency
