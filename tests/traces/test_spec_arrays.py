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
