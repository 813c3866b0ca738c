"""The table/figure drivers at miniature scale (full scale runs live in
benchmarks/)."""

import pytest

from repro.experiments.figure3 import render_figure3, run_figure3
from repro.experiments.figures45 import render_figures45, run_figures45
from repro.experiments.table1 import (
    Table1Row,
    render_table1,
    run_table1,
    run_table1_for,
)
from repro.experiments.table2 import render_table2, run_table2
from repro.experiments.workloads import workload
from repro.traces.filters import L1Filter, L1FilterConfig


TINY = ["186.crafty", "bisort"]  # cheap workloads for driver tests


class TestTable1:
    def test_rows_and_rendering(self):
        rows = run_table1(TINY, scale=0.05)
        assert [r.name for r in rows] == TINY
        for row in rows:
            assert row.instructions > 0
            assert row.dl1_misses >= 0
        text = render_table1(rows)
        assert "Table 1" in text
        assert "bisort" in text

    def test_crafty_is_instruction_miss_heavy(self):
        """Table 1: crafty's IL1 misses dominate its DL1 misses."""
        rows = run_table1(["186.crafty"], scale=0.1)
        assert rows[0].il1_misses > rows[0].dl1_misses

    @pytest.mark.parametrize("seed", [None, 5], ids=["default", "held-out"])
    @pytest.mark.parametrize(
        "name, scale",
        [("179.art", 0.01), ("164.gzip", 0.01), ("health", 0.05)],
    )
    def test_row_equals_per_access_l1_filter(self, name, scale, seed):
        """The array L1s give the row L1Filter counts access by access."""
        spec = L1Filter(L1FilterConfig())
        for _ in spec.filter(workload(name, scale=scale, seed=seed).accesses()):
            pass
        assert run_table1_for(name, scale=scale, seed=seed) == Table1Row(
            name=name,
            accesses=spec.accesses,
            instructions=spec.instructions,
            il1_misses=spec.il1_misses,
            dl1_misses=spec.dl1_misses,
        )


class TestFigure3:
    def test_snapshots_at_requested_times(self):
        results = run_figure3(
            num_elements=400,
            window_size=20,
            snapshot_times=(5_000, 50_000),
        )
        assert set(results) == {"Circular", "HalfRandom(300)"}
        for snapshots in results.values():
            assert [s.time for s in snapshots] == [5_000, 50_000]
            assert len(snapshots[0].affinities) == 400

    def test_circular_converges_to_two_runs(self):
        results = run_figure3(
            num_elements=400, window_size=20, snapshot_times=(120_000,)
        )
        final = results["Circular"][-1]
        assert final.sign_runs <= 4
        assert 0.4 <= final.balance <= 0.6

    def test_rendering(self):
        results = run_figure3(
            num_elements=100, window_size=10, snapshot_times=(2_000,)
        )
        text = render_figure3(results)
        assert "Figure 3" in text


class TestFigures45:
    def test_rows_and_rendering(self):
        rows = run_figures45(TINY, scale=0.05)
        for row in rows:
            assert len(row.p1_curve) == 6
            assert len(row.p4_curve) == 6
            # Profiles are tail fractions: monotone non-increasing.
            assert list(row.p1_curve) == sorted(row.p1_curve, reverse=True)
        text = render_figures45(rows)
        assert "Figures 4-5" in text
        assert "bisort" in text


class TestTable2:
    def test_row_fields(self):
        rows = run_table2(["186.crafty"], scale=0.05)
        row = rows[0]
        assert row.instructions > 0
        assert row.l1_misses > 0
        assert row.instr_per_l1_miss > 1
        text = render_table2(rows)
        assert "Table 2" in text

    def test_ratio_semantics(self):
        from repro.experiments.table2 import Table2Row

        row = Table2Row(
            name="x",
            instructions=1000,
            l1_misses=100,
            l2_misses_baseline=50,
            l2_misses_migrating=25,
            migrations=5,
        )
        assert row.ratio == pytest.approx(0.5)
        assert row.instr_per_l2_miss == pytest.approx(20)
        assert row.instr_per_4xl2_miss == pytest.approx(40)
        assert row.break_even_pmig == pytest.approx(5.0)

    def test_nan_ratio_when_no_baseline_misses(self):
        from repro.experiments.table2 import Table2Row

        row = Table2Row("x", 1000, 10, 0, 0, 0)
        assert row.ratio != row.ratio  # NaN


class TestRunAllCli:
    def test_cli_runs_table1(self, capsys):
        from repro.experiments.run_all import main

        exit_code = main(
            ["--only", "table1", "--workloads", "bisort", "--scale", "0.05"]
        )
        assert exit_code == 0
        assert "Table 1" in capsys.readouterr().out
