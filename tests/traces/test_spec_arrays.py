"""SpecModel.arrays() against its specification, SpecModel.accesses().

``accesses()`` is the per-reference definition of every SPEC model's
trace; ``arrays()`` generates the same trace a chunk at a time.  The
two must agree in values and dtypes on every model, on both input sets
(calibrated seeds and an explicit seed), and on lengths either side of
the 65 536-reference draw chunk.
"""

import numpy as np
import pytest

from repro.experiments.workloads import workload
from repro.kernels.arrays import trace_to_arrays
from repro.traces.spec_models import (
    Component,
    SpecModel,
    SpecModelConfig,
    spec_model,
    spec_model_names,
)
from repro.traces.synthetic import (
    Circular,
    HalfRandom,
    InterleavedStreams,
    PermutationCycle,
    SequenceBehavior,
    Stride,
    UniformRandom,
)
from repro.traces.trace import AccessKind

LENGTHS = (0, 1, 65_535, 65_536, 65_537, 131_073)


def assert_same_trace(got, want):
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize("seed", (None, 5))
@pytest.mark.parametrize("name", spec_model_names())
def test_model_arrays_equal_accesses(name, seed):
    for length in LENGTHS:
        want = trace_to_arrays(spec_model(name, length=length, seed=seed).accesses())
        got = spec_model(name, length=length, seed=seed).arrays()
        assert_same_trace(got, want)


@pytest.mark.parametrize("scale", (0.004, 0.01))
def test_workload_arrays_equal_accesses(scale):
    """``WorkloadSpec.arrays()`` and ``.accesses()`` share the scaled
    length rule (at 0.004 the 10 000-reference floor binds for most
    models; at 0.01 none does)."""
    for name in spec_model_names():
        for seed in (None, 5):
            spec = workload(name, scale=scale, seed=seed)
            assert_same_trace(spec.arrays(), trace_to_arrays(spec.accesses()))


class _Backwards(Circular):
    """A subclass that overrides ``addresses``: arrays() must read its
    generator, not assume Circular's index arithmetic."""

    def addresses(self, count):
        for element in super().addresses(count):
            yield self.num_lines - 1 - element


def test_every_block_path_matches():
    """Behaviours no calibrated model uses: offset starts, a negative
    stride, a fractional instruction gap, generator-read behaviours."""
    config = SpecModelConfig(
        name="mixture",
        components=(
            Component(0.2, AccessKind.LOAD, Circular(1000, start=7)),
            Component(0.1, AccessKind.FETCH, Stride(999, stride=-3, start=5)),
            Component(0.1, AccessKind.LOAD, PermutationCycle(333, seed=2)),
            Component(0.2, AccessKind.LOAD, UniformRandom(5000, seed=3)),
            Component(0.1, AccessKind.LOAD, HalfRandom(64, burst=5, seed=4)),
            Component(0.1, AccessKind.FETCH, SequenceBehavior([3, 1, 4, 1, 5])),
            Component(
                0.1,
                AccessKind.LOAD,
                InterleavedStreams([Circular(10), UniformRandom(20)], seed=6),
            ),
            Component(0.1, AccessKind.LOAD, _Backwards(77, start=3)),
        ),
        instructions_per_access=2.7,
        store_fraction=0.3,
    )
    for length in (1, 70_000):
        want = trace_to_arrays(SpecModel(config, length=length).accesses())
        got = SpecModel(config, length=length).arrays()
        assert_same_trace(got, want)


def concatenated(chunks):
    return tuple(np.concatenate([chunk[i] for chunk in chunks]) for i in range(3))


@pytest.mark.parametrize("length", (1, 65_536, 65_537))
def test_array_chunks_concatenate_to_accesses(length):
    """Chunks of at most 65 536 references that join into the trace."""
    chunks = list(spec_model("179.art", length=length, seed=5).array_chunks())
    assert all(len(chunk[0]) <= 65_536 for chunk in chunks)
    want = trace_to_arrays(spec_model("179.art", length=length, seed=5).accesses())
    assert_same_trace(concatenated(chunks), want)


def test_empty_model_has_no_chunks():
    assert list(spec_model("179.art", length=0).array_chunks()) == []


@pytest.mark.parametrize("name", ("164.gzip", "mst"))
def test_workload_array_chunks_concatenate_to_arrays(name):
    """SPEC chunks come from the generator, Olden ones are slices."""
    spec = workload(name, scale=0.05)
    assert_same_trace(concatenated(list(spec.array_chunks())), spec.arrays())


def test_array_chunks_temporaries_are_bounded():
    # One 65,536-reference chunk is 17 B a reference.  Making it used to
    # peak at about 85 B a reference and kept every draw alive while
    # the consumer had the chunk; now each draw is narrowed at once and
    # the generator keeps nothing of a chunk it has handed out.
    import tracemalloc

    model = spec_model("179.art")
    model.length = 1 << 17
    references = 1 << 16
    tracemalloc.start()
    try:
        chunks = model.array_chunks()
        before = tracemalloc.get_traced_memory()[0]
        chunk = next(chunks)
        assert len(chunk[0]) == references
        peak = tracemalloc.get_traced_memory()[1] - before
        del chunk
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert peak <= 64 * references
    # The uniform-random component's pending draws (8 B each) remain.
    assert held <= 10 * references
