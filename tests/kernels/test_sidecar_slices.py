"""A found sidecar replayed in slices against its whole record.

A job that finds its record's sidecar checks the file once and then
reads the record a slice of ``_BATCH`` records at a time, in place
(``_Sidecar.slices``).  Held here to the whole record
``L1FilterRecord.load`` reads from the same file, replayed once per
model: the same deep state and probe reports for slices of 1 and 7
records and of a size that divides the record exactly, over every chip
shape the kernels specialise for and the baseline hierarchy; the same
rows and deep state for every population variant; and a warm
population job that holds about two slices of record and memo, never
the whole record.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.caches.hierarchy import CoreCacheConfig, SingleCoreHierarchy
from repro.experiments import variants
from repro.experiments.variants import VARIANT_NAMES, population_job
from repro.kernels import l1filter, specialize
from repro.kernels.l1filter import (
    L1FilterRecord,
    build_l1_filter,
    l1_filter_job,
    l1_filter_job_for,
)
from repro.multicore.chip import MultiCoreChip
from repro.obs import SimProbe
from repro.runtime.cache import ResultCache
from tests.kernels.helpers import (
    PROBE_SHAPES,
    captured,
    eventful_trace,
    model_state,
)

#: the sidecar's L1s (the default geometry) over a 16-KB L2, so that a
#: short trace evicts, flips filters and migrates, and a replay call is
#: cheap enough to make one per record
CACHES = CoreCacheConfig(l2_bytes=16 * 1024)

SHAPES = ["baseline", "four_core", "two_way", "l2_shaped_store"]


def _model(shape, probed):
    probe = (
        SimProbe(sample_interval=97, bus_saturation_bytes_per_ref=20.0)
        if probed
        else None
    )
    if shape == "baseline":
        return SingleCoreHierarchy(CACHES, probe=probe)
    return MultiCoreChip(replace(PROBE_SHAPES[shape], caches=CACHES), probe=probe)


@pytest.fixture(scope="module")
def sidecar(tmp_path_factory):
    """A sidecar of an eventful trace that ends in 500 L1 hits, so the
    last slice carries references past the last record."""
    addresses, kinds, instructions = eventful_trace(11, n=4000, span=1400)
    hits = 500
    addresses = np.concatenate([addresses, np.full(hits, addresses[-1])])
    kinds = np.concatenate([kinds, np.ones(hits, dtype=np.int8)])
    instructions = np.concatenate(
        [instructions, instructions[-1] + 1 + np.arange(hits)]
    )
    record = build_l1_filter(addresses, kinds, instructions)
    assert 100 < record.records and record.indices[-1] < record.accesses - hits
    return record.save(tmp_path_factory.mktemp("slices") / "record.l1f.npz")


def _divisor(records):
    """The largest slice length that divides ``records`` into 3 or more
    slices."""
    return next(size for size in range(records // 3, 0, -1) if records % size == 0)


def _slices(path, batch):
    with l1filter._read_sidecar(path) as sidecar:
        return list(sidecar.slices(batch))


@pytest.mark.parametrize("batch", [1, 7, "divisor"])
def test_slices_cover_the_whole_record(sidecar, batch):
    whole = L1FilterRecord.load(sidecar)
    if batch == "divisor":
        batch = _divisor(whole.records)
    slices = _slices(sidecar, batch)
    assert len(slices) == -(-whole.records // batch)
    assert all(piece.records == batch for piece in slices[:-1])
    assert 0 < slices[-1].records <= batch
    assert sum(piece.accesses for piece in slices) == whole.accesses
    # Slice k's indices count from S_k, the trace index of its first
    # record (0 for the first slice).
    starts = np.cumsum([0] + [piece.accesses for piece in slices[:-1]])
    for start, piece in zip(starts[1:], slices[1:]):
        assert piece.indices[0] == 0
        assert start == whole.indices[np.searchsorted(whole.indices, start)]
    assert np.array_equal(
        np.concatenate(
            [piece.indices + start for start, piece in zip(starts, slices)]
        ),
        whole.indices,
    )
    for field in ("lines", "kinds"):
        assert np.array_equal(
            np.concatenate([getattr(piece, field) for piece in slices]),
            getattr(whole, field),
        )
    assert [piece.max_instruction for piece in slices] == [-1] * (
        len(slices) - 1
    ) + [whole.max_instruction]
    assert all(piece.kinds.dtype == np.uint8 for piece in slices)


@pytest.mark.parametrize("batch", [1, 7, "divisor"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("probed", [False, True])
def test_slices_replay_as_the_whole_record(sidecar, batch, shape, probed):
    whole = L1FilterRecord.load(sidecar)
    if batch == "divisor":
        batch = _divisor(whole.records)
    sliced = _model(shape, probed)
    for piece in _slices(sidecar, batch):
        sliced.run_filtered(piece)
    once = _model(shape, probed)
    once.run_filtered(whole)
    assert model_state(sliced) == model_state(once)
    if shape != "baseline":
        assert once.stats.migrations > 0


def test_empty_record_is_one_slice(tmp_path):
    # Every reference hits the L1s after the first: a record of one
    # miss, then a record of none but all the references.
    addresses = np.zeros(50, dtype=np.int64)
    kinds = np.ones(50, dtype=np.int8)
    instructions = np.arange(50, dtype=np.int64)
    record = build_l1_filter(addresses, kinds, instructions)
    empty = L1FilterRecord(
        **{**record.header(), "max_instruction": 49},
        indices=record.indices[:0],
        lines=record.lines[:0],
        kinds=record.kinds[:0],
    )
    (piece,) = _slices(empty.save(tmp_path / "empty.l1f.npz"), 7)
    assert piece.records == 0
    assert (piece.accesses, piece.max_instruction) == (50, 49)


# -- the population's variant jobs ---------------------------------------

#: a small warm member, about 12,000 records
NAME, SCALE = "179.art", 0.003


@pytest.fixture
def warm(tmp_path, monkeypatch):
    """A private cache root with the member's sidecar, and its path."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    l1_filter_job(NAME, scale=SCALE)
    job = l1_filter_job_for(NAME, scale=SCALE)
    return ResultCache(root=tmp_path).generation_dir / f"{job.hash}.l1f.npz"


@pytest.mark.parametrize("batch", [1000, "divisor"])
def test_population_variants_replay_slices_as_the_whole_record(
    warm, monkeypatch, batch
):
    whole = L1FilterRecord.load(warm)
    if batch == "divisor":
        batch = _divisor(whole.records)
    assert whole.records > 2 * batch
    make_variant = variants.make_variant
    monkeypatch.setattr(l1filter, "_BATCH", batch)
    reads = captured(monkeypatch, l1filter, "_read_sidecar")
    models = captured(monkeypatch, variants, "make_variant")
    rows = [population_job(NAME, variant, scale=SCALE) for variant in VARIANT_NAMES]
    assert len(reads) == len(VARIANT_NAMES)
    for variant, row, model in zip(VARIANT_NAMES, rows, models):
        once = make_variant(variant)
        once.run_filtered(whole)
        assert model_state(model) == model_state(once), variant
        assert row["record_source"] == "sidecar"
        assert row["l1_filter_cached"] is True
        assert row["references"] == whole.accesses
        assert row["instructions"] == once.stats.instructions


def test_l1filter_job_reads_the_sidecar_in_slices(warm, monkeypatch):
    # The warm l1filter job sums the slices' kinds: the payload of the
    # whole record, with the sidecar left as it was.
    whole = L1FilterRecord.load(warm)
    before = warm.read_bytes()
    monkeypatch.setattr(l1filter, "_BATCH", 1000)
    slices = []
    real_slices = l1filter._Sidecar.slices

    def counted(self, batch):
        for piece in real_slices(self, batch):
            slices.append(piece.records)
            yield piece

    monkeypatch.setattr(l1filter._Sidecar, "slices", counted)
    payload = l1_filter_job(NAME, scale=SCALE)
    assert len(slices) == -(-whole.records // 1000)
    assert payload == l1filter._record_payload(
        whole.header(), l1filter._kind_counts(whole.kinds)
    )
    assert warm.read_bytes() == before


def test_warm_population_job_holds_two_slices(tmp_path, monkeypatch):
    # 799,137 records: the whole record and its replay memo come to
    # 17 + 10 B a record (21.6 MB), a slice of each to 27 B x 2^17
    # (3.5 MB).  The kernel is stubbed out, so what is measured is what
    # the job holds of its record; the chip's own state does not grow
    # with the record's length.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    l1_filter_job("179.art", scale=0.2)
    monkeypatch.setattr(specialize, "_kernel_for", lambda sig: lambda *args: None)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        row = population_job("179.art", "migration", scale=0.2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert row["record_source"] == "sidecar"
    assert row["references"] == 800_000
    assert peak <= 27 * l1filter._BATCH * 2
