"""Consecutive ``SplitMechanism.process_many`` calls compose like one
``process`` loop: Figure 3 calls it once per snapshot segment, so a
segment must start exactly where the previous one left the mechanism
and its store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.affinity_store import UnboundedAffinityStore
from repro.core.mechanism import SplitMechanism
from repro.kernels import specialize
from tests.kernels.helpers import mechanism_state, store_state


@st.composite
def cut_lines(draw):
    """A line list and sorted cut points into it (repeats and the two
    ends allowed, so some segments are empty)."""
    lines = draw(st.lists(st.integers(0, 60), max_size=300))
    cuts = draw(st.lists(st.integers(0, len(lines)), max_size=6))
    return lines, sorted(cuts)


@pytest.mark.parametrize("track", [True, False])
@given(
    case=cut_lines(),
    window_size=st.integers(1, 12),
    affinity_bits=st.integers(2, 8),
)
@settings(max_examples=150, deadline=None)
def test_cut_calls_compose_like_one_process_loop(
    track, case, window_size, affinity_bits
):
    lines, cuts = case

    def fresh():
        return SplitMechanism(
            window_size,
            UnboundedAffinityStore(),
            affinity_bits=affinity_bits,
            track_true_window_affinity=track,
        )

    spec = fresh()
    expected = [spec.process(line) for line in lines]
    batched = fresh()
    specialize._PROCESS_KERNELS.pop(track, None)
    got = []
    for start, end in zip([0, *cuts], [*cuts, len(lines)]):
        got += batched.process_many(lines[start:end])
    assert got == expected
    assert mechanism_state(batched) == mechanism_state(spec)
    assert store_state(batched.store) == store_state(spec.store)
    # the generated kernel ran, not the process loop
    assert track in specialize._PROCESS_KERNELS
