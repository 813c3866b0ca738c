"""``SplitMechanism.process_many`` vs its per-item seed loop (the
batched mechanism step Figure 3's transition counts use)."""

from hypothesis import given, settings, strategies as st

from repro.core.affinity_store import AffinityCache, UnboundedAffinityStore
from repro.core.mechanism import SplitMechanism
from tests.kernels.helpers import mechanism_state, store_state

lines_strategy = st.lists(st.integers(0, 500), max_size=200)


class TestProcessMany:
    @given(lines=lines_strategy)
    @settings(max_examples=50, deadline=None)
    def test_unbounded_store(self, lines):
        seed = SplitMechanism(8, UnboundedAffinityStore(), affinity_bits=6)
        expected = [seed.process(line) for line in lines]
        batched = SplitMechanism(8, UnboundedAffinityStore(), affinity_bits=6)
        assert batched.process_many(lines) == expected
        assert mechanism_state(batched) == mechanism_state(seed)
        assert store_state(batched.store) == store_state(seed.store)

    @given(lines=lines_strategy)
    @settings(max_examples=50, deadline=None)
    def test_affinity_cache_store(self, lines):
        seed = SplitMechanism(8, AffinityCache(64, 4), affinity_bits=6)
        expected = [seed.process(line) for line in lines]
        batched = SplitMechanism(8, AffinityCache(64, 4), affinity_bits=6)
        assert batched.process_many(lines) == expected
        assert mechanism_state(batched) == mechanism_state(seed)
        assert store_state(batched.store) == store_state(seed.store)

    @given(lines=lines_strategy)
    @settings(max_examples=20, deadline=None)
    def test_lru_window_falls_back(self, lines):
        seed = SplitMechanism(
            8, UnboundedAffinityStore(), affinity_bits=6, lru_window=True
        )
        expected = [seed.process(line) for line in lines]
        batched = SplitMechanism(
            8, UnboundedAffinityStore(), affinity_bits=6, lru_window=True
        )
        assert batched.process_many(lines) == expected
        assert mechanism_state(batched) == mechanism_state(seed)

    @given(lines=lines_strategy)
    @settings(max_examples=20, deadline=None)
    def test_literal_figure2_register(self, lines):
        seed = SplitMechanism(
            8,
            UnboundedAffinityStore(),
            affinity_bits=6,
            track_true_window_affinity=False,
        )
        expected = [seed.process(line) for line in lines]
        batched = SplitMechanism(
            8,
            UnboundedAffinityStore(),
            affinity_bits=6,
            track_true_window_affinity=False,
        )
        assert batched.process_many(lines) == expected
        assert mechanism_state(batched) == mechanism_state(seed)
