"""The array section 4.1 L1s against their specification, L1Filter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traces import filters
from repro.traces.filters import ArrayL1Filter, L1Filter, L1FilterConfig
from repro.traces.trace import Access, AccessKind

#: (line, kind, instruction step) triples over a few lines, so that
#: tiny L1s evict
steps_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11),
        st.sampled_from([0, 1, 2]),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=120,
)


def trace_arrays(steps, line_size=64):
    index = np.arange(len(steps), dtype=np.int64)
    lines = np.array([s[0] for s in steps], dtype=np.int64)
    addresses = lines * line_size + (index * 5) % line_size
    kinds = np.array([s[1] for s in steps], dtype=np.int8)
    instructions = np.cumsum([s[2] for s in steps], dtype=np.int64)
    return addresses, kinds, instructions


def spec_run(config, arrays):
    """L1Filter over the same trace: (miss flags, the filter)."""
    spec = L1Filter(config)
    flags = [
        spec.filter_one(Access(int(a), AccessKind(int(k)), int(i))) is not None
        for a, k, i in zip(*arrays)
    ]
    return flags, spec


def assert_same_state(engine, spec):
    assert engine.accesses == spec.accesses
    assert engine.instructions == spec.instructions
    assert engine.il1_misses == spec.il1_misses
    assert engine.dl1_misses == spec.dl1_misses
    assert engine.l1_misses == spec.l1_misses
    assert engine.il1_lines.tolist() == list(spec.il1._lines)
    assert engine.dl1_lines.tolist() == list(spec.dl1._lines)


@settings(max_examples=80, deadline=None)
@given(
    steps=steps_strategy,
    il1_lines=st.integers(min_value=1, max_value=4),
    dl1_lines=st.integers(min_value=1, max_value=4),
    chunk=st.integers(min_value=1, max_value=7),
)
def test_matches_l1_filter_on_tiny_l1s(steps, il1_lines, dl1_lines, chunk):
    config = L1FilterConfig(il1_bytes=64 * il1_lines, dl1_bytes=64 * dl1_lines)
    arrays = trace_arrays(steps)
    flags, spec = spec_run(config, arrays)
    engine = ArrayL1Filter(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(filters, "_L1_CHUNK", chunk)
        misses = engine.filter(*arrays)
    assert misses.tolist() == flags
    assert_same_state(engine, spec)


@settings(max_examples=40, deadline=None)
@given(steps=steps_strategy, cut=st.integers(min_value=0, max_value=120))
def test_consecutive_calls_continue_one_trace(steps, cut):
    config = L1FilterConfig(il1_bytes=64 * 3, dl1_bytes=64 * 2)
    arrays = trace_arrays(steps)
    cut = min(cut, len(steps))
    flags, spec = spec_run(config, arrays)
    engine = ArrayL1Filter(config)
    first = engine.filter(*(a[:cut] for a in arrays))
    second = engine.filter(*(a[cut:] for a in arrays))
    assert np.concatenate((first, second)).tolist() == flags
    assert_same_state(engine, spec)


def test_default_is_section_41_geometry():
    engine = ArrayL1Filter()
    assert engine._capacity == (256, 256)

