"""The streamed Table 2 job against the whole record.

A cold Table 2 job builds its L1-filter record as the trace streams
through one L1 pair and replays it a batch at a time
(``l1_filter_batches``).  Held here to the whole record built by
``build_l1_filter_from_chunks`` and replayed once per model: the same
row, deep model state and probe reports, the same sidecar bytes and
l1filter payload, and a footprint that does not grow with the trace.
A warm job reads the sidecar a slice at a time, held here to the whole
record ``L1FilterRecord.load`` reads: the same deep state and probe
reports, and the same artifacts as a job of one slice.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.caches.hierarchy import SingleCoreHierarchy
from repro.experiments.table2 import run_table2_for
from repro.experiments.workloads import workload
from repro.kernels import l1filter, specialize
from repro.kernels.l1filter import (
    build_l1_filter,
    build_l1_filter_from_chunks,
    l1_filter_batches,
    l1_filter_job_for,
)
from repro.multicore.chip import ChipConfig, MultiCoreChip
from repro.obs import SimProbe
from repro.runtime.cache import ResultCache
from tests.kernels.helpers import (
    PROBE_SHAPES,
    SMALL_CACHES,
    captured,
    eventful_trace,
    model_state,
)

#: small members: Olden traces decoded from their words, SPEC generated
MEMBERS = [
    ("health", 0.02),
    ("mst", 0.05),
    ("179.art", 0.003),
    ("164.gzip", 0.003),
]


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    """One cache root for the module, so the Olden memos are made once;
    each example removes the sidecar and payload it is about to build."""
    root = tmp_path_factory.mktemp("stream-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(root))
        yield root


def _models(probed, chip_config=None, caches=None):
    baseline = SingleCoreHierarchy(
        caches, probe=SimProbe(name="baseline") if probed else None
    )
    chip = MultiCoreChip(
        chip_config or ChipConfig(),
        probe=SimProbe(name="chip") if probed else None,
    )
    return baseline, chip


def _expected_payload(record):
    return {
        "accesses": record.accesses,
        "records": record.records,
        "il1_misses": record.il1_misses,
        "dl1_misses": record.dl1_misses,
        "max_instruction": record.max_instruction,
        "references": record.accesses,
    }


def _cold(cache, name, scale):
    """The sidecar path and job of a member, with both removed."""
    job = l1_filter_job_for(name, scale=scale)
    sidecar = cache.generation_dir / f"{job.hash}.l1f.npz"
    sidecar.unlink(missing_ok=True)
    cache.path_for(job).unlink(missing_ok=True)
    return job, sidecar


@given(
    member=st.sampled_from(MEMBERS),
    batch=st.sampled_from([1, 7, 4096]),
    chunk=st.sampled_from([512, 4096]),
    probed=st.booleans(),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_streamed_job_equals_whole_record(
    cache_root, tmp_path, member, batch, chunk, probed
):
    name, scale = member
    cache = ResultCache(root=cache_root)
    job, sidecar = _cold(cache, name, scale)
    streamed = _models(probed)
    batches = 0
    with mock.patch.object(l1filter, "_BATCH", batch), mock.patch.object(
        l1filter, "_CHUNK", chunk
    ):
        for record in l1_filter_batches(name, scale=scale):
            batches += 1
            for model in streamed:
                model.run_filtered(record)
    whole_record = build_l1_filter_from_chunks(
        workload(name, scale=scale).array_chunks()
    )
    assert batches > 1
    whole = _models(probed)
    for model in whole:
        model.run_filtered(whole_record)
    for got, want in zip(streamed, whole):
        assert model_state(got) == model_state(want)

    reference = whole_record.save(tmp_path / "whole.l1f.npz")
    assert sidecar.read_bytes() == reference.read_bytes()
    loaded = l1filter.L1FilterRecord.load(sidecar)
    for field in ("indices", "lines", "kinds"):
        assert np.array_equal(
            getattr(loaded, field), getattr(whole_record, field)
        )
    assert cache.get(job) == _expected_payload(whole_record)
    assert not list(cache.generation_dir.glob(".tmp-*"))


def test_empty_and_short_batches_compose():
    # A trace whose last pieces are all L1 hits ends in a batch with no
    # records that still carries their references and instructions.
    addresses, kinds, instructions = eventful_trace(3, n=2000)
    hits = 700
    addresses = np.concatenate([addresses, np.full(hits, addresses[-1])])
    kinds = np.concatenate([kinds, np.ones(hits, dtype=np.int8)])
    instructions = np.concatenate(
        [instructions, instructions[-1] + 1 + np.arange(hits)]
    )
    config = SMALL_CACHES
    chunks = [
        tuple(a[start : start + 600] for a in (addresses, kinds, instructions))
        for start in range(0, len(addresses), 600)
    ]
    with mock.patch.object(l1filter, "_CHUNK", 256):
        batches = list(
            l1filter._filtered(
                config.make_l1(config.il1_bytes),
                config.make_l1(config.dl1_bytes),
                config,
                chunks,
                7,
            )
        )
    assert batches[-1].records == 0 < batches[-1].accesses
    assert batches[-1].max_instruction == instructions[-1]
    assert all(b.records >= 7 for b in batches[:-1])
    assert sum(b.accesses for b in batches) == len(addresses)

    whole = build_l1_filter(addresses, kinds, instructions, config)
    for shape in ("four_core", "two_way"):
        pieces = _models(True, PROBE_SHAPES[shape], SMALL_CACHES)
        for batch in batches:
            for model in pieces:
                model.run_filtered(batch)
        once = _models(True, PROBE_SHAPES[shape], SMALL_CACHES)
        for model in once:
            model.run_filtered(whole)
        for got, want in zip(pieces, once):
            assert model_state(got) == model_state(want)


def _artifacts(obs_dir):
    """Per-run artifacts as parsed JSON, trace and span ids dropped."""

    def scrub(value):
        if isinstance(value, dict):
            return {
                key: scrub(item)
                for key, item in value.items()
                if key not in ("trace_id", "span_id", "parent_span_id")
            }
        if isinstance(value, list):
            return [scrub(item) for item in value]
        return value

    files = {}
    for path in sorted(obs_dir.glob("table2-*")):
        text = path.read_text(encoding="utf-8")
        if path.name.endswith(".jsonl"):
            files[path.name] = [
                scrub(json.loads(line)) for line in text.splitlines()
            ]
        else:
            files[path.name] = scrub(json.loads(text))
    return files


def test_streamed_and_loaded_jobs_agree_with_probes(cache_root, tmp_path):
    # The cold job streams several batches; the warm one reads the
    # sidecar the cold one wrote in slices of _BATCH records.
    name, scale = "mst", 0.3
    cache = ResultCache(root=cache_root)
    _cold(cache, name, scale)
    cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
    with mock.patch.object(l1filter, "_BATCH", 4096):
        cold = run_table2_for(name, scale=scale, obs_dir=str(cold_dir))
    warm = run_table2_for(name, scale=scale, obs_dir=str(warm_dir))
    assert cold == warm
    assert cold.migrations > 0
    cold_files = _artifacts(cold_dir)
    assert len(cold_files) == 6
    assert cold_files == _artifacts(warm_dir)
    spans = [json.loads(line) for line in (cold_dir / "phases.jsonl").open()]
    names = [span["name"] for span in spans]
    # One build span per batch and one for the end of the stream, then
    # the sidecar's publication.
    batches = names.count("replay.chip")
    assert batches > 1
    assert names == [
        *["l1filter.build", "replay.baseline", "replay.chip"] * batches,
        "l1filter.build",
        "l1filter.save",
    ]


@pytest.mark.parametrize("batch", [4096, "divisor"])
@pytest.mark.parametrize("probed", [False, True])
def test_warm_job_replays_slices_as_the_whole_record(
    cache_root, tmp_path, monkeypatch, batch, probed
):
    from repro.experiments import table2

    name, scale = "mst", 0.3
    job = l1_filter_job_for(name, scale=scale)
    sidecar = ResultCache(root=cache_root).generation_dir / f"{job.hash}.l1f.npz"
    if not sidecar.exists():
        l1filter.l1_filter_job(name, scale=scale)
    whole = l1filter.L1FilterRecord.load(sidecar)
    if batch == "divisor":
        # the largest length that divides the record into 3 or more
        batch = next(
            size
            for size in range(whole.records // 3, 0, -1)
            if whole.records % size == 0
        )
    slices = -(-whole.records // batch)
    assert slices > 2
    monkeypatch.setattr(l1filter, "_BATCH", batch)
    baselines = captured(monkeypatch, table2, "SingleCoreHierarchy")
    chips = captured(monkeypatch, table2, "MultiCoreChip")
    sliced_dir = tmp_path / "sliced"
    row = run_table2_for(
        name, scale=scale, obs_dir=str(sliced_dir) if probed else None
    )
    once = _models(probed)
    for model in once:
        model.run_filtered(whole)
    for got, want in zip((*baselines, *chips), once):
        assert model_state(got) == model_state(want)
    assert row.migrations == once[1].stats.migrations > 0
    if probed:
        lines = (sliced_dir / "phases.jsonl").read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == [
            "l1filter.load",
            *["replay.baseline", "replay.chip"] * slices,
        ]
        # A job of one slice replays the whole record in one call per
        # model: the same artifacts.
        whole_dir = tmp_path / "whole"
        monkeypatch.setattr(l1filter, "_BATCH", whole.records)
        assert run_table2_for(name, scale=scale, obs_dir=str(whole_dir)) == row
        assert _artifacts(sliced_dir) == _artifacts(whole_dir)


def _traced_peak(job):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        job()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_stream_footprint_is_flat(tmp_path, monkeypatch):
    # What a cold job holds beside its models, at two trace lengths of
    # whole 65,536-reference SPEC chunks: the whole record and its
    # replay memo grow by 17 + 10 B per record, one batch of each does
    # not grow at all.
    monkeypatch.setattr(l1filter, "_CHUNK", 1 << 12)
    monkeypatch.setattr(l1filter, "_BATCH", 1 << 13)
    chip = MultiCoreChip(ChipConfig())
    signature = specialize.chip_signature(chip)

    def streamed(scale):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / str(scale)))
        for batch in l1_filter_batches("179.art", scale=scale):
            specialize._precompute(batch, chip, signature)

    def whole(scale):
        spec = workload("179.art", scale=scale)
        record = build_l1_filter_from_chunks(spec.array_chunks())
        specialize._precompute(record, chip, signature)
        records.append(record.records)

    scales = (0.016384, 0.032768)  # 65,536 and 131,072 references
    records = []
    stream_peaks = [_traced_peak(lambda: streamed(scale)) for scale in scales]
    whole_peaks = [_traced_peak(lambda: whole(scale)) for scale in scales]
    added = records[1] - records[0]
    assert added > 0.9 * 65536
    assert whole_peaks[1] - whole_peaks[0] >= 20 * added
    assert stream_peaks[1] - stream_peaks[0] <= 2 * added
