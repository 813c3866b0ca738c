"""Synthetic working-set behaviours."""

import pytest

from repro.traces.synthetic import (
    Circular,
    HalfRandom,
    InterleavedStreams,
    PermutationCycle,
    PhaseAlternating,
    SequenceBehavior,
    Stride,
    UniformRandom,
    behavior_trace,
)
from repro.traces.trace import AccessKind


class TestCircular:
    def test_wraps(self):
        assert list(Circular(3).addresses(7)) == [0, 1, 2, 0, 1, 2, 0]

    def test_start_offset(self):
        assert list(Circular(3, start=2).addresses(4)) == [2, 0, 1, 2]

    def test_invalid(self):
        with pytest.raises(ValueError):
            Circular(0)
        with pytest.raises(ValueError):
            Circular(3, start=3)


class TestHalfRandom:
    def test_alternates_halves(self):
        stream = list(HalfRandom(100, 10, seed=0).addresses(40))
        assert all(e < 50 for e in stream[:10])
        assert all(e >= 50 for e in stream[10:20])
        assert all(e < 50 for e in stream[20:30])

    def test_deterministic(self):
        a = list(HalfRandom(100, 10, seed=1).addresses(50))
        b = list(HalfRandom(100, 10, seed=1).addresses(50))
        assert a == b

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            HalfRandom(101, 10)

    def test_partial_burst_at_end(self):
        assert len(list(HalfRandom(100, 30).addresses(45))) == 45


class TestUniformRandom:
    def test_range(self):
        assert all(0 <= e < 50 for e in UniformRandom(50).addresses(1000))

    def test_covers_set(self):
        seen = set(UniformRandom(20, seed=0).addresses(2000))
        assert seen == set(range(20))


class TestStride:
    def test_unit_stride_is_circular(self):
        assert list(Stride(4, 1).addresses(6)) == [0, 1, 2, 3, 0, 1]

    def test_stride_two(self):
        assert list(Stride(8, 2).addresses(5)) == [0, 2, 4, 6, 0]

    def test_zero_stride_rejected(self):
        with pytest.raises(ValueError):
            Stride(8, 0)


class TestPermutationCycle:
    def test_is_a_permutation(self):
        stream = list(PermutationCycle(16, seed=0).addresses(16))
        assert sorted(stream) == list(range(16))

    def test_repeats_identically(self):
        stream = list(PermutationCycle(16, seed=0).addresses(32))
        assert stream[:16] == stream[16:]

    def test_different_seeds_differ(self):
        a = list(PermutationCycle(64, seed=0).addresses(64))
        b = list(PermutationCycle(64, seed=1).addresses(64))
        assert a != b


class TestSequenceBehavior:
    def test_cycles(self):
        s = SequenceBehavior([3, 1, 4])
        assert list(s.addresses(5)) == [3, 1, 4, 3, 1]

    def test_num_lines(self):
        assert SequenceBehavior([3, 1, 4]).num_lines == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SequenceBehavior([])


class TestPhaseAlternating:
    def test_disjoint_ranges(self):
        phases = PhaseAlternating(
            [(Circular(4), 4), (Circular(4), 4)], disjoint=True
        )
        stream = list(phases.addresses(8))
        assert stream == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_shared_ranges(self):
        phases = PhaseAlternating(
            [(Circular(4), 2), (Circular(4), 2)], disjoint=False
        )
        stream = list(phases.addresses(4))
        assert all(e < 4 for e in stream)

    def test_invalid_phase_length(self):
        with pytest.raises(ValueError):
            PhaseAlternating([(Circular(4), 0)])


class TestInterleavedStreams:
    def test_disjoint_offsets(self):
        inter = InterleavedStreams([Circular(4), Circular(4)], seed=0)
        stream = list(inter.addresses(100))
        assert any(e < 4 for e in stream)
        assert any(e >= 4 for e in stream)
        assert all(e < 8 for e in stream)

    def test_weights_respected(self):
        inter = InterleavedStreams(
            [Circular(4), Circular(4)], weights=[9, 1], seed=0
        )
        stream = list(inter.addresses(2000))
        first = sum(1 for e in stream if e < 4)
        assert first > 1500

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            InterleavedStreams([Circular(4)], weights=[1, 2])
        with pytest.raises(ValueError):
            InterleavedStreams([Circular(4)], weights=[0])


class TestBehaviorTrace:
    def test_addresses_and_instructions(self):
        trace = list(behavior_trace(Circular(4), 6, line_size=64,
                                    instructions_per_access=3))
        assert [a.address for a in trace] == [0, 64, 128, 192, 0, 64]
        assert [a.instruction for a in trace] == [0, 3, 6, 9, 12, 15]
        assert all(a.kind is AccessKind.LOAD for a in trace)

    def test_invalid_gap_rejected(self):
        with pytest.raises(ValueError):
            list(behavior_trace(Circular(4), 2, instructions_per_access=0))
