"""The array stack-depth engine against its specification, LruStack."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.caches import lru_stack
from repro.caches.lru_stack import (
    ArrayLruStack,
    LruStack,
    StackProfile,
    stack_depths,
)


def spec_depths(lines):
    """One LruStack.access per reference, first touches as 0."""
    stack = LruStack(initial_capacity=4)  # tiny: exercises compaction
    return [stack.access(int(line)) or 0 for line in lines]


def depths_in_chunks(lines, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lru_stack, "_DEPTH_CHUNK", chunk)
        return stack_depths(lines)


class TestEdges:
    def test_empty(self):
        depths = stack_depths([])
        assert depths.dtype == np.int32
        assert len(depths) == 0

    def test_single_line_stream(self):
        assert stack_depths([7] * 5).tolist() == [0, 1, 1, 1, 1]

    def test_classic_sequence(self):
        assert stack_depths([1, 2, 3, 1, 2, 2, 1]).tolist() == spec_depths(
            [1, 2, 3, 1, 2, 2, 1]
        )

    def test_large_line_addresses(self):
        lines = [2**40 + 3, 5, 2**40 + 3, 2**62, 5]
        assert stack_depths(lines).tolist() == spec_depths(lines)


@settings(max_examples=80, deadline=None)
@given(
    lines=st.lists(st.integers(min_value=0, max_value=15), max_size=150),
    chunk=st.integers(min_value=1, max_value=7),
)
def test_matches_lru_stack_at_any_chunk_size(lines, chunk):
    assert depths_in_chunks(lines, chunk).tolist() == spec_depths(lines)


@settings(max_examples=30, deadline=None)
@given(
    line=st.integers(min_value=0, max_value=2**50),
    length=st.integers(min_value=0, max_value=40),
    chunk=st.integers(min_value=1, max_value=7),
)
def test_single_line_at_any_chunk_size(line, length, chunk):
    lines = [line] * length
    assert depths_in_chunks(lines, chunk).tolist() == spec_depths(lines)


@settings(max_examples=40, deadline=None)
@given(
    lines=st.lists(st.integers(min_value=0, max_value=15), max_size=150),
    cuts=st.lists(st.integers(min_value=0, max_value=150), max_size=4),
    chunk=st.integers(min_value=1, max_value=7),
)
def test_consecutive_calls_continue_one_stream(lines, cuts, chunk):
    stack = ArrayLruStack()
    bounds = [0] + sorted(min(c, len(lines)) for c in cuts) + [len(lines)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lru_stack, "_DEPTH_CHUNK", chunk)
        depths = [
            stack.access_many(lines[a:b]) for a, b in zip(bounds, bounds[1:])
        ]
    assert np.concatenate(depths).tolist() == spec_depths(lines)
    # The stack holds every line seen, least recently used first.
    recency = {line: i for i, line in enumerate(lines)}
    assert stack.lines.tolist() == sorted(recency, key=recency.get)


@settings(max_examples=40, deadline=None)
@given(lines=st.lists(st.integers(min_value=0, max_value=9), max_size=80))
def test_profile_from_depths_matches_recording(lines):
    stack = LruStack()
    recorded = StackProfile()
    recorded.record_stream(stack.access(line) for line in lines)
    built = StackProfile.from_depths(stack_depths(lines))
    assert built.total == recorded.total
    assert built.cold == recorded.cold
    assert built._histogram == recorded._histogram
    for size in range(12):
        assert built.fraction_deeper(size) == recorded.fraction_deeper(size)


def test_from_depths_rejects_negative_depths():
    with pytest.raises(ValueError):
        StackProfile.from_depths(np.array([1, -2]))
