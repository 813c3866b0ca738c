"""Baseline comparison (section 3.1): online affinity vs offline
partitioners on cut quality.

The affinity algorithm is an online O(1) heuristic for an NP-hard
problem.  This bench quantifies what that costs: on splittable working
sets its frozen assignment should approach offline Kernighan-Lin's cut;
on random sets everyone is stuck at 1/2.
"""

from conftest import run_once

from repro.core.controller import ControllerConfig, MigrationController
from repro.partition import (
    build_transition_graph,
    evaluate_partition,
    kernighan_lin_bipartition,
    random_split,
    replay_transition_frequency,
)
from repro.traces.synthetic import HalfRandom, UniformRandom


def cuts_for(behavior, references=150_000):
    stream = list(behavior.addresses(references))
    graph = build_transition_graph(stream)
    kl = evaluate_partition(
        graph, *kernighan_lin_bipartition(graph, seed=0)
    ).cut_fraction
    rnd = evaluate_partition(
        graph, *random_split(graph.nodes, seed=0)
    ).cut_fraction
    controller = MigrationController(
        ControllerConfig(num_subsets=2, x_window_size=64, filter_bits=16)
    )
    controller.observe_many(stream)
    frozen = {
        line: 0 if (controller.affinity_of(line) or 0) >= 0 else 1
        for line in graph.nodes
    }
    online = replay_transition_frequency(stream, frozen.__getitem__)
    return {"kl": kl, "random": rnd, "affinity": online}


def test_online_affinity_approaches_kl_on_splittable(benchmark):
    cuts = run_once(
        benchmark, lambda: cuts_for(HalfRandom(800, 150, seed=3))
    )
    print()
    print(f"HalfRandom(150) cuts: {cuts}")
    assert cuts["affinity"] < 0.05  # near-optimal (ideal 1/150 ≈ 0.007)
    assert cuts["affinity"] <= 3 * max(cuts["kl"], 1 / 150)
    assert cuts["random"] > 0.45
    benchmark.extra_info.update(cuts)


def test_everyone_fails_on_random(benchmark):
    cuts = run_once(
        benchmark, lambda: cuts_for(UniformRandom(800, seed=3))
    )
    print()
    print(f"UniformRandom cuts: {cuts}")
    # Section 3.4: no splitter beats 1/2 by much on a random stream.
    assert cuts["kl"] > 0.4
    assert cuts["random"] > 0.45
    # The online algorithm's *frozen assignment* also cuts ~1/2; the
    # transition filter is what keeps the hardware from acting on it.
    assert cuts["affinity"] > 0.4
    benchmark.extra_info.update(cuts)
