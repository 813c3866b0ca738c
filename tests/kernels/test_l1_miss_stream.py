"""``l1_miss_stream`` against its specification, per-access ``access``.

The kernel runs the ``OrderedDict`` set logic only on each set's run
heads and derives every other reference with numpy, so the traces here
are built to stress the run rule: long same-line runs, runs that open
with a store miss (stores keep missing until a load allocates),
alternating lines (every reference a head), and mixed fetch, load and
store kinds.  ``_CHUNK`` is patched small so runs straddle chunk
boundaries, and each trace goes through in two calls so the second
starts from warm caches.  Records, both caches' ``CacheStats``,
``last_eviction`` and every set's lines in LRU order with their dirty
bits must match.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.base import EvictedLine
from repro.caches.hierarchy import CoreCacheConfig
from repro.kernels import l1filter
from repro.kernels.l1filter import (
    FETCH_MISS,
    LOAD_MISS,
    STORE_L1_HIT,
    STORE_L1_MISS,
    l1_miss_stream,
)

LINE = 64
#: 8-line L1s: 8, 4 and 2 sets at 1, 2 and 4 ways, one at ``ways=0``
L1_BYTES = 8 * LINE
#: stands for "never accessed": a cache the trace misses keeps it
UNTOUCHED = EvictedLine(-1, True)

FETCH, LOAD, STORE = 0, 1, 2
KINDS = (FETCH, LOAD, STORE)


@st.composite
def segment(draw):
    """One stretch of a trace: a run of one line, a run led by stores,
    or two lines taking turns, each reference with its own kind."""
    line = draw(st.integers(0, 40))
    shape = draw(st.sampled_from(["run", "store_led", "alternating"]))
    if shape == "store_led":
        kinds = [STORE] * draw(st.integers(1, 4)) + draw(
            st.lists(st.sampled_from([LOAD, STORE]), max_size=8)
        )
    else:
        kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=12))
    other = draw(st.integers(0, 40)) if shape == "alternating" else line
    return [(other if i % 2 else line, k) for i, k in enumerate(kinds)]


traces = st.lists(segment(), max_size=30).map(
    lambda parts: [step for part in parts for step in part]
)


def spec(il1, dl1, steps, offset=0):
    """Per-access simulation: the records the kernel must emit."""
    records = []
    for i, (line, kind) in enumerate(steps, start=offset):
        if kind == FETCH:
            if not il1.access(line):
                records.append((i, line, FETCH_MISS))
        elif kind == LOAD:
            if not dl1.access(line):
                records.append((i, line, LOAD_MISS))
        else:
            hit = dl1.access(line, write=True, allocate=False)
            records.append((i, line, STORE_L1_HIT if hit else STORE_L1_MISS))
    return records


def kernel(il1, dl1, steps, offset=0):
    addresses = np.array([line * LINE + 8 for line, _ in steps], np.int64)
    kinds = np.array([kind for _, kind in steps], dtype=np.int8)
    indices, lines, record_kinds = l1_miss_stream(
        il1, dl1, addresses, kinds, LINE
    )
    assert indices.dtype == np.int64 and lines.dtype == np.int64
    assert record_kinds.dtype == np.uint8
    return list(
        zip(
            (indices + offset).tolist(), lines.tolist(), record_kinds.tolist()
        )
    )


def state(cache):
    """Stats, ``last_eviction`` and every set's ``(line, dirty)`` items
    in LRU order."""
    sets = cache._sets if hasattr(cache, "_sets") else [cache._lines]
    return (
        vars(cache.stats),
        cache.last_eviction,
        [list(cache_set.items()) for cache_set in sets],
    )


def l1_pair(ways):
    config = CoreCacheConfig(
        line_size=LINE, il1_bytes=L1_BYTES, dl1_bytes=L1_BYTES, l1_ways=ways
    )
    il1, dl1 = config.make_l1(L1_BYTES), config.make_l1(L1_BYTES)
    il1.last_eviction = dl1.last_eviction = UNTOUCHED
    return il1, dl1


@settings(max_examples=150, deadline=None)
@given(
    steps=traces,
    ways=st.sampled_from([0, 1, 2, 4]),
    chunk=st.sampled_from([1, 2, 3, 5, 16, 1 << 16]),
    split=st.floats(0, 1),
)
def test_matches_per_access_calls(steps, ways, chunk, split):
    cut = int(len(steps) * split)
    expected_il1, expected_dl1 = l1_pair(ways)
    il1, dl1 = l1_pair(ways)
    expected = spec(expected_il1, expected_dl1, steps[:cut])
    expected += spec(expected_il1, expected_dl1, steps[cut:], cut)
    with mock.patch.object(l1filter, "_CHUNK", chunk):
        got = kernel(il1, dl1, steps[:cut])
        got += kernel(il1, dl1, steps[cut:], cut)
    assert got == expected
    assert state(il1) == state(expected_il1)
    assert state(dl1) == state(expected_dl1)


@settings(max_examples=40, deadline=None)
@given(
    lines=st.lists(st.integers(0, 200), min_size=1, max_size=400),
    kinds=st.lists(st.sampled_from(KINDS), min_size=400, max_size=400),
    ways=st.sampled_from([0, 1, 2, 4]),
    chunk=st.sampled_from([7, 64, 1 << 16]),
)
def test_matches_on_scattered_lines(lines, kinds, ways, chunk):
    """Few runs at all: nearly every reference is a head and misses,
    as in the SPEC traces."""
    steps = list(zip(lines, kinds))
    expected_il1, expected_dl1 = l1_pair(ways)
    il1, dl1 = l1_pair(ways)
    expected = spec(expected_il1, expected_dl1, steps)
    with mock.patch.object(l1filter, "_CHUNK", chunk):
        got = kernel(il1, dl1, steps)
    assert got == expected
    assert state(il1) == state(expected_il1)
    assert state(dl1) == state(expected_dl1)


def test_store_led_run_allocates_on_its_first_load():
    # Stores to an absent line miss and do not allocate; the first load
    # allocates it, and the stores after it hit and dirty it.
    steps = [(3, STORE), (3, STORE), (3, LOAD), (3, STORE), (3, LOAD)]
    il1, dl1 = l1_pair(2)
    assert kernel(il1, dl1, steps) == [
        (0, 3, STORE_L1_MISS),
        (1, 3, STORE_L1_MISS),
        (2, 3, LOAD_MISS),
        (3, 3, STORE_L1_HIT),
    ]
    stats, last, sets = state(dl1)
    assert (stats["accesses"], stats["hits"], stats["misses"]) == (5, 2, 3)
    assert last is None
    assert [(3, True)] in sets
    assert state(il1)[1] is UNTOUCHED
