"""Report rendering helpers."""

from repro.experiments.report import ascii_curve, ratio_cell, render_rows, section


class TestAsciiCurve:
    def test_monotone_glyphs(self):
        curve = ascii_curve([1.0, 0.5, 0.0])
        assert curve[0] == "@"
        assert curve[-1] == " "
        assert len(curve) == 3

    def test_clamps_out_of_range(self):
        assert ascii_curve([2.0, -1.0]) == "@ "


class TestRatioCell:
    def test_two_decimals(self):
        assert ratio_cell(0.347) == "0.35"

    def test_nan_is_dash(self):
        assert ratio_cell(float("nan")) == "-"


class TestSection:
    def test_underlined(self):
        lines = section("Title").splitlines()
        assert lines == ["Title", "====="]


class TestRenderRows:
    def test_renders(self):
        text = render_rows(["a", "b"], [[1, 2], [3, 4]])
        assert "a" in text and "3" in text
