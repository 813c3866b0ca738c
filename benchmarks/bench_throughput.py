"""Micro-benchmarks: simulation throughput of the hot components.

These are classic pytest-benchmark timing runs (multiple rounds) for
the structures everything else is built on.  They exist to catch
performance regressions in the simulator itself — the paper
reproductions above are throughput-bound on exactly these loops.

The LRU stack is paired with ``stack_depths`` and the controller's
``observe`` loop with ``observe_many`` (the array engines Figures 4-5
use), the mechanism's per-access loop with ``process_many`` (the
kernel generated from the chip's mechanism block, which Figure 3
uses), and the chip's with ``run_arrays`` and
``run_filtered`` from :mod:`repro.kernels`, so a session's JSON shows
the batched paths staying ahead.  The end-to-end chip trio (a Table 2
mst-class workload through ``chip.run`` vs the batched fast path) is
what ``benchmarks/throughput_e2e.py`` distils into
``BENCH_throughput.json`` for CI.
"""

import numpy as np
import pytest

from repro.caches.fully_assoc import FullyAssociativeCache
from repro.caches.lru_stack import LruStack, stack_depths
from repro.caches.set_assoc import SetAssociativeCache
from repro.caches.skewed import SkewedAssociativeCache
from repro.core.affinity_store import UnboundedAffinityStore
from repro.core.controller import ControllerConfig, MigrationController
from repro.core.mechanism import SplitMechanism
from repro.traces.synthetic import UniformRandom

_E2E_WORKLOAD = ("mst", 0.2)  #: Table 2 pointer-chasing class, trimmed


@pytest.fixture(scope="module")
def refs():
    """The shared 20k-reference stream, built on first use.

    A fixture (not a module-level constant) so merely importing or
    collecting this file costs nothing — the stream materialises only
    when a throughput test actually runs.
    """
    return list(UniformRandom(4096, seed=0).addresses(20_000))


@pytest.fixture(scope="module")
def e2e_trace():
    """One Table 2 workload as parallel arrays (and its L1 record)."""
    from repro.experiments.workloads import workload
    from repro.kernels.l1filter import build_l1_filter

    name, scale = _E2E_WORKLOAD
    spec = workload(name, scale=scale)
    arrays = spec.arrays()
    return spec, arrays, build_l1_filter(*arrays)


def test_fully_associative_cache_throughput(benchmark, refs):
    def run():
        cache = FullyAssociativeCache(1024)
        for line in refs:
            cache.access(line)
        return cache.stats.misses

    benchmark(run)


def test_set_associative_cache_throughput(benchmark, refs):
    def run():
        cache = SetAssociativeCache(256, 4)
        for line in refs:
            cache.access(line)
        return cache.stats.misses

    benchmark(run)


def test_skewed_cache_throughput(benchmark, refs):
    def run():
        cache = SkewedAssociativeCache(256, 4)
        for line in refs:
            cache.access(line)
        return cache.stats.misses

    benchmark(run)


def test_lru_stack_throughput(benchmark, refs):
    def run():
        stack = LruStack()
        for line in refs:
            stack.access(line)
        return stack.references

    benchmark(run)


def test_stack_depths_throughput(benchmark, refs):
    lines = np.array(refs, dtype=np.int64)

    def run():
        return len(stack_depths(lines))

    benchmark(run)


def test_mechanism_throughput(benchmark, refs):
    def run():
        mechanism = SplitMechanism(128, UnboundedAffinityStore())
        for line in refs:
            mechanism.process(line)
        return mechanism.references

    benchmark(run)


def test_mechanism_batched_throughput(benchmark, refs):
    def run():
        mechanism = SplitMechanism(128, UnboundedAffinityStore())
        mechanism.process_many(refs)
        return mechanism.references

    benchmark(run)


def test_controller_throughput(benchmark, refs):
    def run():
        controller = MigrationController(ControllerConfig.four_core())
        for line in refs:
            controller.observe(line)
        return controller.stats.references

    benchmark(run)


def test_observe_many_throughput(benchmark, refs):
    lines = np.array(refs, dtype=np.int64)

    def run():
        controller = MigrationController(ControllerConfig.four_core())
        controller.observe_many(lines)
        return controller.stats.references

    benchmark(run)


def test_chip_per_access_throughput(benchmark, e2e_trace):
    from repro.multicore.chip import ChipConfig, MultiCoreChip

    spec, _arrays, _record = e2e_trace

    def run():
        chip = MultiCoreChip(ChipConfig())
        chip.run(spec.accesses())
        return chip.stats.l2_misses

    benchmark(run)


def test_chip_batched_throughput(benchmark, e2e_trace):
    from repro.multicore.chip import ChipConfig, MultiCoreChip

    _spec, arrays, _record = e2e_trace

    def run():
        chip = MultiCoreChip(ChipConfig())
        chip.run_arrays(*arrays)
        return chip.stats.l2_misses

    benchmark(run)


def test_chip_filtered_throughput(benchmark, e2e_trace):
    from repro.multicore.chip import ChipConfig, MultiCoreChip

    _spec, _arrays, record = e2e_trace

    def run():
        chip = MultiCoreChip(ChipConfig())
        chip.run_filtered(record)
        return chip.stats.l2_misses

    benchmark(run)
