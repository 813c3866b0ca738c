"""Sidecar chaos: torn ``.l1f.npz`` records, crashes mid-publish, bit
flips in stored records and in Olden trace memos.

Recovery contract: a corrupt sidecar is quarantined and rebuilt to an
identical record; a corrupt trace memo is regenerated to identical
arrays; a process killed between staging and publish leaves *no*
visible sidecar (atomicity — a concurrent reader can never load a
partial record), and the next build succeeds.

Sidecars and memos are written with stored (not deflated) zip members,
so any flipped bit in an array's data fails the member's CRC-32 when it
is read; files written deflated by earlier versions still load.
"""

import os
import random
import signal
import struct
import subprocess
import sys
import time
import zipfile

import numpy as np
import pytest

from repro import faults
from repro.experiments.workloads import olden_trace_path, workload
from repro.faults import FaultPlan, FaultSpec
from repro.kernels.l1filter import (
    L1FilterRecord,
    drop_open_records,
    ensure_l1_filter,
    l1_filter_job_for,
)
from repro.runtime.cache import QUARANTINE_DIR, ResultCache
from repro.runtime.health import health_snapshot
from repro.traces.file_format import load_trace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

WORKLOAD = "mst"
SCALE = 0.05


def record_fingerprint(record):
    return (
        record.accesses,
        record.records,
        record.il1_misses,
        record.dl1_misses,
        record.max_instruction,
        record.indices.tobytes(),
        record.lines.tobytes(),
        record.kinds.tobytes(),
    )


def child_env(cache_root, plan=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
    )
    env["REPRO_CACHE_DIR"] = str(cache_root)
    if plan is not None:
        env[faults.FAULTS_ENV] = plan.to_json()
    else:
        env.pop(faults.FAULTS_ENV, None)
    return env


def flip_data_bit(path, member, rng):
    """Flip one bit of ``member``'s array data where it lies in the
    file: past the zip local header and the ``.npy`` header."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
        payload = archive.read(member)
    # .npy header: magic (6), version (2), header length (2 bytes in
    # format 1.0, 4 in 2.0 and later), header.
    if payload[6] == 1:
        npy_header = 10 + struct.unpack("<H", payload[8:10])[0]
    else:
        npy_header = 12 + struct.unpack("<I", payload[8:12])[0]
    with open(path, "r+b") as fh:
        fh.seek(info.header_offset)
        name_length, extra_length = struct.unpack("<HH", fh.read(30)[26:30])
        data_start = info.header_offset + 30 + name_length + extra_length
        offset = data_start + npy_header + rng.randrange(
            info.compress_size - npy_header
        )
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ (1 << rng.randrange(8))]))


def member_compression(path):
    with zipfile.ZipFile(path) as archive:
        return {info.filename: info.compress_type for info in archive.infolist()}


BUILD_SCRIPT = (
    "from repro.kernels.l1filter import ensure_l1_filter\n"
    f"record, cached = ensure_l1_filter({WORKLOAD!r}, scale={SCALE})\n"
    "print('cached' if cached else 'built', record.records)\n"
)


class TestCorruptSidecar:
    def test_torn_sidecar_is_quarantined_and_rebuilt_identically(
        self, arm, tmp_path, capsys
    ):
        cache = ResultCache(root=tmp_path / "cache")
        # Publish a *corrupted* sidecar: the truncation happens to the
        # staged bytes right before the atomic rename, so the torn
        # record is what lands on disk.
        arm(FaultSpec(site="sidecar.save.bytes", action="truncate", arg=64))
        first, cached = ensure_l1_filter(WORKLOAD, scale=SCALE, cache=cache)
        assert not cached
        faults.uninstall()

        second, cached = ensure_l1_filter(WORKLOAD, scale=SCALE, cache=cache)
        assert not cached  # the torn sidecar was not trusted
        assert record_fingerprint(second) == record_fingerprint(first)
        health = health_snapshot()
        assert health["fault.sidecar.corrupt"] == 1
        assert health["recovery.sidecar.rebuilt"] == 1
        corrupt = list((cache.root / QUARANTINE_DIR).glob("*.corrupt"))
        assert len(corrupt) == 1
        assert "corrupt sidecar" in capsys.readouterr().err

        # The rebuild republished a good record: now it serves.
        third, cached = ensure_l1_filter(WORKLOAD, scale=SCALE, cache=cache)
        assert cached
        assert record_fingerprint(third) == record_fingerprint(first)

    def test_sidecar_write_failure_serves_in_memory_record(
        self, tmp_path, capsys
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("unusable cache root")
        cache = ResultCache(root=blocker)
        record, cached = ensure_l1_filter(WORKLOAD, scale=SCALE, cache=cache)
        assert not cached
        assert record.records > 0
        assert health_snapshot()["fault.sidecar.write_failed"] == 1
        assert "sidecar write failed" in capsys.readouterr().err


class TestStoredSidecar:
    def test_sidecar_members_are_stored(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        ensure_l1_filter(WORKLOAD, scale=SCALE, cache=cache)
        (sidecar,) = cache.root.rglob("*.l1f.npz")
        compression = member_compression(sidecar)
        assert "indices.npy" in compression
        assert set(compression.values()) == {zipfile.ZIP_STORED}

    def test_flip_in_each_array_is_quarantined_and_rebuilt(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        original, _ = ensure_l1_filter(WORKLOAD, scale=SCALE, cache=cache)
        (sidecar,) = cache.root.rglob("*.l1f.npz")
        pristine = sidecar.read_bytes()
        members = sorted(member_compression(sidecar))
        rng = random.Random(13)
        for count, member in enumerate(members, start=1):
            sidecar.write_bytes(pristine)
            flip_data_bit(sidecar, member, rng)
            drop_open_records()
            record, cached = ensure_l1_filter(WORKLOAD, scale=SCALE, cache=cache)
            assert not cached, member
            assert record_fingerprint(record) == record_fingerprint(original)
            health = health_snapshot()
            assert health["fault.sidecar.corrupt"] == count
            assert health["recovery.sidecar.rebuilt"] == count
        # Every flip was quarantined under the sidecar's one name.
        assert len(list((cache.root / QUARANTINE_DIR).glob("*.corrupt"))) == 1
        # The last rebuild published a good record.
        drop_open_records()
        record, cached = ensure_l1_filter(WORKLOAD, scale=SCALE, cache=cache)
        assert cached
        assert record_fingerprint(record) == record_fingerprint(original)

    def test_deflated_sidecar_still_loads(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        original, _ = ensure_l1_filter(WORKLOAD, scale=SCALE, cache=cache)
        (sidecar,) = cache.root.rglob("*.l1f.npz")
        with np.load(sidecar) as data:
            members = {key: data[key] for key in data.files}
        np.savez_compressed(sidecar, **members)
        assert zipfile.ZIP_DEFLATED in member_compression(sidecar).values()
        drop_open_records()
        record, cached = ensure_l1_filter(WORKLOAD, scale=SCALE, cache=cache)
        assert cached
        assert record_fingerprint(record) == record_fingerprint(original)
        assert "fault.sidecar.corrupt" not in health_snapshot()


class TestOldenTraceMemo:
    @pytest.fixture
    def memo(self, tmp_path, monkeypatch):
        """A freshly written memo under a private cache root, and the
        arrays it was written from."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        arrays = workload(WORKLOAD, scale=SCALE).arrays()
        path = olden_trace_path(WORKLOAD, SCALE, None)
        assert path.is_file()
        return path, arrays

    @staticmethod
    def assert_same(got, want):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    def test_memo_members_are_stored(self, memo):
        path, _arrays = memo
        compression = member_compression(path)
        assert "addresses.npy" in compression
        assert set(compression.values()) == {zipfile.ZIP_STORED}

    def test_flipped_bit_regenerates_identical_arrays(self, memo, capsys):
        path, original = memo
        flip_data_bit(path, "addresses.npy", random.Random(7))
        self.assert_same(workload(WORKLOAD, scale=SCALE).arrays(), original)
        assert health_snapshot()["recovery.trace_memo.regenerated"] == 1
        assert "corrupt trace memo" in capsys.readouterr().err
        # The memo was replaced by a good one, which now serves.
        self.assert_same(load_trace(path).arrays(), original)
        self.assert_same(workload(WORKLOAD, scale=SCALE).arrays(), original)
        assert health_snapshot()["recovery.trace_memo.regenerated"] == 1

    def test_deflated_memo_still_loads(self, memo):
        path, original = memo
        with np.load(path) as data:
            members = {key: data[key] for key in data.files}
        np.savez_compressed(path, **members)
        assert zipfile.ZIP_DEFLATED in member_compression(path).values()
        self.assert_same(load_trace(path).arrays(), original)
        self.assert_same(workload(WORKLOAD, scale=SCALE).arrays(), original)
        assert "recovery.trace_memo.regenerated" not in health_snapshot()


class TestCrashMidPublish:
    def test_crash_between_stage_and_publish_leaves_no_sidecar(
        self, tmp_path
    ):
        cache_root = tmp_path / "cache"
        plan = FaultPlan.of(FaultSpec(site="sidecar.save", action="crash"))
        result = subprocess.run(
            [sys.executable, "-c", BUILD_SCRIPT],
            env=child_env(cache_root, plan),
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == faults.CRASH_EXIT_CODE

        # The reader-visible invariant: no partial .l1f.npz, ever.
        cache = ResultCache(root=cache_root)
        job = l1_filter_job_for(WORKLOAD, scale=SCALE)
        sidecar = cache.generation_dir / f"{job.hash}.l1f.npz"
        assert not sidecar.exists()
        # Staged leftovers are allowed (prune() reaps them), but they
        # must never match the *.l1f.npz pattern a reader looks for.
        assert list(cache_root.rglob("*.l1f.npz")) == []

        # Next build (no faults) succeeds and publishes atomically.
        result = subprocess.run(
            [sys.executable, "-c", BUILD_SCRIPT],
            env=child_env(cache_root),
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.startswith("built")
        assert sidecar.is_file()
        local, cached = ensure_l1_filter(
            WORKLOAD, scale=SCALE, cache=ResultCache(root=cache_root)
        )
        assert cached
        assert local.records > 0

    def test_sigterm_during_publish_window_leaves_no_sidecar(self, tmp_path):
        cache_root = tmp_path / "cache"
        # Hang at the publish seam (tmp staged, rename not yet done),
        # then SIGTERM the builder — the kill lands inside the window.
        plan = FaultPlan.of(
            FaultSpec(site="sidecar.save", action="hang", arg=60.0)
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", BUILD_SCRIPT],
            env=child_env(cache_root, plan),
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # Wait for the staged tmp file to appear, then terminate.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if list(cache_root.rglob(".tmp-*.npz")):
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10.0)
        proc.stdout.close()
        proc.stderr.close()
        assert proc.returncode == -signal.SIGTERM
        assert list(cache_root.rglob("*.l1f.npz")) == []

        # The interrupted build never published; a clean retry does.
        record, cached = ensure_l1_filter(
            WORKLOAD, scale=SCALE, cache=ResultCache(root=cache_root)
        )
        assert not cached
        assert record.records > 0
