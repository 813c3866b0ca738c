"""Figures 4-5: LRU stack profiles p1 ("normal") vs p4 ("split").

Regenerates both curves for all 18 workloads at the paper's six cache
sizes and checks the splittability classification the paper reports:

* splittable (p4 visibly below p1): art, ammp, mcf, bzip2, em3d, health
  ("the curves for p1 and p4 are quite distinct ... 179.art, 188.ammp,
  bh, health, and several others");
* not splittable (p1 ~ p4): gzip, vpr, parser, bisort ("p1(x) and p4(x)
  are very close whatever value of x");
* everywhere: "the transition frequency remains low" (worst: vpr).
"""

from conftest import run_once

from repro.experiments.figures45 import render_figures45, run_figures45

SPLITTABLE = ("179.art", "188.ammp", "181.mcf", "256.bzip2", "em3d", "health")
UNSPLITTABLE = ("164.gzip", "175.vpr", "197.parser", "bisort")


def test_figures45(benchmark, bench_scale):
    rows = run_once(benchmark, lambda: run_figures45(scale=bench_scale))
    print()
    print(render_figures45(rows))

    by_name = {row.name: row for row in rows}
    assert len(rows) == 18

    gap_threshold = 0.05 if bench_scale >= 0.75 else 0.02
    for name in SPLITTABLE:
        assert by_name[name].verdict.gap > gap_threshold, (
            name,
            by_name[name].verdict,
        )
    for name in UNSPLITTABLE:
        assert by_name[name].verdict.gap < 0.15, (name, by_name[name].verdict)

    # "In all cases, the transition frequency remains low" (paper max:
    # 1.34% on vpr; allow headroom at reduced scale).
    for row in rows:
        assert row.transition_frequency < 0.04, row.name

    benchmark.extra_info["gaps"] = {
        row.name: round(profile_gap_row(row), 4) for row in rows
    }
    benchmark.extra_info["transition_frequencies"] = {
        row.name: round(row.transition_frequency, 5) for row in rows
    }


def profile_gap_row(row):
    return max(a - b for a, b in zip(row.p1_curve, row.p4_curve))
