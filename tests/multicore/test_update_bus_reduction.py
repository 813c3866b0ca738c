"""Register-update bandwidth reduction (paper section 6, future work)."""

import pytest

from repro.multicore.update_bus import RegisterUpdateReduction


class TestThresholdBroadcasting:
    def test_full_duty_cycle_is_full_bandwidth(self):
        model = RegisterUpdateReduction()
        assert model.threshold_bandwidth(1.0) == pytest.approx(
            model.bus.bytes_per_cycle()
        )

    def test_zero_duty_cycle_removes_register_traffic(self):
        model = RegisterUpdateReduction()
        reduced = model.threshold_bandwidth(0.0)
        register_bytes = model.bus.retire_width * model.register_bits / 8
        assert reduced == pytest.approx(
            model.bus.bytes_per_cycle() - register_bytes
        )
        # Registers dominate: most of the 45 B/cycle goes away.
        assert reduced < model.bus.bytes_per_cycle() / 2

    def test_migration_penalty_additional_cycles(self):
        model = RegisterUpdateReduction()
        extra = model.threshold_migration_penalty_cycles()
        # 64 registers x ~9 bytes over a ~45 B/cycle bus: ~12 cycles.
        assert 5 < extra < 30

    def test_invalid_duty_cycle(self):
        with pytest.raises(ValueError):
            RegisterUpdateReduction().threshold_bandwidth(1.5)


class TestRegisterUpdateCache:
    def test_bandwidth_monotone_in_rewrite_fraction(self):
        model = RegisterUpdateReduction()
        assert model.cache_bandwidth(0.9) < model.cache_bandwidth(0.5)

    def test_spill_penalty_scales_with_entries(self):
        model = RegisterUpdateReduction()
        assert model.cache_migration_penalty_cycles(
            32
        ) == pytest.approx(2 * model.cache_migration_penalty_cycles(16))

    def test_invalid_inputs(self):
        model = RegisterUpdateReduction()
        with pytest.raises(ValueError):
            model.cache_bandwidth(-0.1)
        with pytest.raises(ValueError):
            model.cache_migration_penalty_cycles(-1)

    def test_reduction_keeps_migration_viable(self):
        """Even after spilling a 32-entry register-update cache, the
        migration penalty stays in the few-tens-of-cycles regime the
        paper's trade-off needs."""
        from repro.multicore.migration import MigrationPenaltyModel

        base = MigrationPenaltyModel()
        extra = RegisterUpdateReduction().cache_migration_penalty_cycles(32)
        assert (base.migration_cycles() + extra) < base.l2_miss_penalty_cycles
