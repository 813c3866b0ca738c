"""Mini-Olden: the five Olden benchmarks the paper evaluates, re-implemented
in Python over a traced heap.

The Olden suite [Carlisle & Rogers 1995; sequential versions by Amir
Roth] exercises linked data structures — exactly the workloads the
paper's conclusion singles out as the most promising for execution
migration.  Rather than synthesising "pointer-like" traces, this package
*runs the real algorithms* over a simulated heap
(:class:`repro.olden.heap.TracedHeap`) that records every field access
with its dynamic instruction index, so the locality structure in the
trace is the genuine article.

Benchmarks (paper Table 1 inputs in parentheses; defaults here are
scaled down, every size is a constructor argument):

* :func:`~repro.olden.bh.bh` — Barnes-Hut N-body (2k bodies)
* :func:`~repro.olden.bisort.bisort` — bitonic sort of a binary tree (250k numbers)
* :func:`~repro.olden.em3d.em3d` — 3-D electromagnetic wave propagation (2000 nodes)
* :func:`~repro.olden.health.health` — Colombian health-care simulation (5 levels, 500 iters)
* :func:`~repro.olden.mst.mst` — minimum spanning tree over hashed adjacency (1024 nodes)
"""

import gc

from repro.common.rng import mix_seed
from repro.olden.heap import HeapObject, RecordedTrace, TracedHeap
from repro.olden.bh import bh
from repro.olden.bisort import bisort
from repro.olden.em3d import em3d
from repro.olden.health import health
from repro.olden.mst import mst

#: the five benchmarks the paper evaluates (Tables 1-2, Figure 5)
OLDEN_BENCHMARKS = ("bh", "bisort", "em3d", "health", "mst")


def olden_benchmark(
    name: str, scale: float = 1.0, seed: "int | None" = None
) -> RecordedTrace:
    """Run one Olden benchmark at a size factor and return its trace.

    ``scale`` multiplies the default problem size (1.0 = this package's
    defaults, which are themselves scaled down from the paper's inputs).
    ``seed`` re-derives each benchmark's input-generation seed (``None``
    keeps the calibrated defaults).

    The benchmark's heap objects are freed before this returns: they
    form reference cycles, which would otherwise live until the cycle
    collector next runs.
    """
    trace = _run(name, scale, seed)
    gc.collect()
    return trace


def _run(name: str, scale: float, seed: "int | None") -> RecordedTrace:
    def derive(default: int) -> int:
        if seed is None:
            return default
        return mix_seed(seed, "olden", name)

    if name == "bh":
        return bh(num_bodies=max(64, int(2048 * scale)), seed=derive(121))
    if name == "bisort":
        target = max(1024, int(8192 * scale))
        return bisort(size=1 << (target - 1).bit_length(), seed=derive(1024))
    if name == "em3d":
        return em3d(num_nodes=max(128, int(2000 * scale)), seed=derive(783))
    if name == "health":
        return health(
            max_level=4, timesteps=max(20, int(160 * scale)), seed=derive(42)
        )
    if name == "mst":
        return mst(num_vertices=max(64, int(512 * scale)), seed=derive(317))
    raise KeyError(
        f"unknown Olden benchmark {name!r}; known: {OLDEN_BENCHMARKS}"
    )


__all__ = [
    "HeapObject",
    "OLDEN_BENCHMARKS",
    "RecordedTrace",
    "TracedHeap",
    "bh",
    "bisort",
    "em3d",
    "health",
    "mst",
    "olden_benchmark",
]
