"""Pointer-load filtering (paper section 6, future work)."""

import pytest

from repro.analysis.pointer_filtering import (
    PointerFilteringResult,
    run_pointer_filtering,
)
from repro.core.controller import ControllerConfig, MigrationController
from repro.olden.bisort import bisort
from repro.olden.em3d import em3d
from repro.olden.health import health
from repro.traces.filters import L1Filter


def per_access_pointer_filtering(trace):
    """The specification: ``L1Filter.filter_one`` and
    ``MigrationController.observe`` one reference at a time."""
    unfiltered = MigrationController(
        ControllerConfig(num_subsets=2, filter_bits=16)
    )
    pointer_gated = MigrationController(
        ControllerConfig(num_subsets=2, filter_bits=16, l2_filtering=True)
    )
    l1 = L1Filter()
    references = pointer_references = 0
    for access, is_pointer in trace.accesses_with_pointer_flags():
        miss = l1.filter_one(access)
        if miss is None:
            continue
        references += 1
        pointer_references += is_pointer
        unfiltered.observe(miss.line)
        pointer_gated.observe(miss.line, l2_miss=is_pointer)
    return PointerFilteringResult(
        name=trace.name,
        references=references,
        pointer_references=pointer_references,
        transitions_unfiltered=unfiltered.stats.transitions,
        transitions_pointer_only=pointer_gated.stats.transitions,
    )


class TestPointerTagging:
    def test_olden_traces_contain_pointer_accesses(self):
        trace = em3d(num_nodes=64, degree=4, timesteps=2)
        assert 0 < trace.pointer_load_count < len(trace)

    def test_flags_align_with_accesses(self):
        trace = bisort(size=64)
        pairs = list(trace.accesses_with_pointer_flags())
        assert len(pairs) == len(trace)
        assert sum(flag for _a, flag in pairs) == trace.pointer_load_count


@pytest.mark.parametrize(
    "make_trace",
    [
        lambda: em3d(num_nodes=256, degree=6, timesteps=4),
        lambda: bisort(size=1024),
        lambda: health(max_level=2, timesteps=40),
    ],
    ids=["em3d", "bisort", "health"],
)
def test_matches_per_access_loop(make_trace):
    trace = make_trace()
    result = run_pointer_filtering(trace)
    assert result == per_access_pointer_filtering(trace)
    assert result.transitions_unfiltered > 0


class TestPointerFiltering:
    def test_gating_reduces_transitions(self):
        """Updating the filter only on pointer accesses can only reduce
        (or keep) the number of transitions."""
        trace = em3d(num_nodes=256, degree=6, timesteps=4)
        result = run_pointer_filtering(trace)
        assert result.references > 0
        assert 0.0 < result.pointer_fraction < 1.0
        assert result.transitions_pointer_only <= result.transitions_unfiltered

    def test_result_metrics(self):
        trace = bisort(size=512)
        result = run_pointer_filtering(trace)
        assert result.name == "bisort"
        assert 0.0 <= result.suppression <= 1.0
