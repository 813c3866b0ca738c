"""Property test: consecutive ``run_arrays`` calls compose.

Feeding a long trace through one model a chunk at a time is exact only
if consecutive calls end where one call over the whole trace ends.
Hypothesis cuts eventful traces at random points (empty chunks
included) and runs the pieces through one model — every chip shape the
kernels specialise for (``PROBE_SHAPES``) and the baseline hierarchy,
with and without the ``SimProbe`` the constructor attaches, its storm
rule drawn so that storms straddle the cuts — and requires the deep
state of one call and of per-access ``run()``, probe report included.
"""

from hypothesis import given, settings, strategies as st

from repro.caches.hierarchy import SingleCoreHierarchy
from repro.multicore.chip import MultiCoreChip
from repro.obs import SimProbe
from tests.kernels.helpers import (
    PROBE_SHAPES,
    SMALL_CACHES,
    eventful_trace,
    model_state,
    per_access,
)


def _make_model(kind, probed, storm_window, storm_threshold):
    probe = (
        SimProbe(
            sample_interval=97,
            storm_window=storm_window,
            storm_threshold=storm_threshold,
        )
        if probed
        else None
    )
    if kind == "baseline":
        return SingleCoreHierarchy(SMALL_CACHES, probe=probe)
    return MultiCoreChip(PROBE_SHAPES[kind], probe=probe)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 3000),
    cuts=st.lists(st.integers(0, 3000), max_size=5),
    kind=st.sampled_from(sorted(PROBE_SHAPES) + ["baseline"]),
    probed=st.booleans(),
    storm_window=st.sampled_from([1, 9, 256]),
    storm_threshold=st.sampled_from([1, 3, 16]),
)
@settings(max_examples=40, deadline=None)
def test_consecutive_chunks_equal_one_call(
    seed, n, cuts, kind, probed, storm_window, storm_threshold
):
    arrays = eventful_trace(seed, n=n)
    bounds = [0, *sorted(min(cut, n) for cut in cuts), n]

    def make_model():
        return _make_model(kind, probed, storm_window, storm_threshold)

    chunked = make_model()
    for start, end in zip(bounds, bounds[1:]):
        chunked.run_arrays(*(array[start:end] for array in arrays))
    whole = make_model()
    whole.run_arrays(*arrays)
    generic = per_access(make_model(), arrays)

    assert model_state(chunked) == model_state(whole)
    assert model_state(chunked) == model_state(generic)
