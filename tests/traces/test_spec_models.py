"""Calibrated SPEC-like workload models."""

import pytest

from repro.traces.spec_models import (
    LINES_PER_MB,
    spec_model,
    spec_model_names,
)
from repro.traces.trace import AccessKind


class TestRegistry:
    def test_thirteen_benchmarks(self):
        names = spec_model_names()
        assert len(names) == 13
        assert names[0] == "164.gzip"
        assert "179.art" in names
        assert "300.twolf" in names

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            spec_model("999.nope")

    def test_length_override(self):
        model = spec_model("179.art", length=5000)
        assert sum(1 for _ in model.accesses()) == 5000


class TestTraceProperties:
    def test_deterministic_replay(self):
        a = [x.address for x in spec_model("181.mcf", length=3000).accesses()]
        b = [x.address for x in spec_model("181.mcf", length=3000).accesses()]
        assert a == b

    def test_instructions_monotone(self):
        last = -1
        for access in spec_model("176.gcc", length=3000).accesses():
            assert access.instruction >= last
            last = access.instruction

    def test_instruction_rate_matches_config(self):
        model = spec_model("164.gzip", length=20_000)
        accesses = list(model.accesses())
        rate = accesses[-1].instruction / len(accesses)
        assert rate == pytest.approx(
            model.config.instructions_per_access, rel=0.1
        )

    def test_components_use_disjoint_regions(self):
        model = spec_model("164.gzip", length=50_000)
        lines = {a.address // 64 for a in model.accesses()}
        # Two components: a 2.5 MB region then a 448 KB region at a
        # 3 MB-aligned base.
        region_starts = {line // (3 * LINES_PER_MB) for line in lines}
        assert len(region_starts) >= 1  # sanity: addresses are grouped
        assert max(lines) >= 3 * LINES_PER_MB  # second region is offset

    def test_fetch_heavy_benchmarks_emit_fetches(self):
        kinds = {
            a.kind for a in spec_model("186.crafty", length=5000).accesses()
        }
        assert AccessKind.FETCH in kinds

    def test_store_fraction_roughly_respected(self):
        model = spec_model("171.swim", length=30_000)
        accesses = list(model.accesses())
        stores = sum(1 for a in accesses if a.kind is AccessKind.STORE)
        assert stores / len(accesses) == pytest.approx(0.25, abs=0.05)


class TestCalibrationShapes:
    def test_art_is_mostly_circular(self):
        """art's dominant component revisits lines in a fixed cycle."""
        model = spec_model("179.art", length=100_000)
        big_region = [
            a.address // 64
            for a in model.accesses()
            if a.address // 64 < LINES_PER_MB * 2
        ]
        # A circular sweep is monotone modulo wraparound.
        increasing = sum(
            1 for x, y in zip(big_region, big_region[1:]) if y > x
        )
        assert increasing / len(big_region) > 0.95

    def test_footprints_ordered_by_regime(self):
        """twolf (fits one L2) < art (fits 4xL2) < swim (exceeds 4xL2)."""
        twolf = spec_model("300.twolf").footprint_lines
        art = spec_model("179.art").footprint_lines
        swim = spec_model("171.swim").footprint_lines
        assert twolf < 8192  # < 512 KB
        assert 8192 < art < 32768  # between 512 KB and 2 MB
        assert swim > 32768  # > 2 MB
