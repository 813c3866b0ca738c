"""Cache chaos: torn artifacts, bit rot, full disks, unwritable roots.

Recovery contract: corruption reads as a miss (quarantine + counter +
recompute, bit-identical payload); write failures degrade the cache to
compute-through — the run's results are never lost or wrong.
"""

import errno

from repro.faults import FaultSpec
from repro.runtime.cache import QUARANTINE_DIR
from repro.runtime.health import health_snapshot
from repro.runtime.job import Job
from repro.runtime.scheduler import CACHED, OK

ECHO = "tests.chaos.jobs:echo_job"


def echo_jobs(n):
    return [Job.create(ECHO, label=f"j{i}", value=i) for i in range(n)]


def quarantined(cache_root):
    return list((cache_root / QUARANTINE_DIR).glob("*.corrupt"))


class TestTornArtifact:
    def test_truncated_artifact_is_quarantined_and_recomputed(
        self, arm, quiet_runtime, tmp_path
    ):
        jobs = echo_jobs(2)
        cache_root = tmp_path / "cache"
        runtime = quiet_runtime(cache_dir=cache_root, jobs=1)
        baseline = runtime.map(jobs)
        assert [o.status for o in baseline] == [OK] * 2

        # Re-publish the first artifact torn (as if a crash mid-write
        # had somehow become visible / the disk lost the tail).
        arm(FaultSpec(site="cache.put.bytes", action="truncate", arg=20))
        runtime.cache.put(jobs[0], baseline[0].payload)

        rerun = quiet_runtime(cache_dir=cache_root, jobs=1)
        outcomes = rerun.map(jobs)
        # Torn artifact: recomputed.  Intact artifact: served.
        assert [o.status for o in outcomes] == [OK, CACHED]
        assert [o.payload for o in outcomes] == [o.payload for o in baseline]
        assert health_snapshot()["fault.cache.corrupt_artifact"] == 1
        assert len(quarantined(cache_root)) == 1

    def test_bitflipped_payload_fails_checksum_and_recomputes(
        self, arm, quiet_runtime, tmp_path, capsys
    ):
        job = echo_jobs(1)[0]
        cache_root = tmp_path / "cache"
        runtime = quiet_runtime(cache_dir=cache_root, jobs=1)
        baseline = runtime.run_one(job)

        arm(FaultSpec(site="cache.put.bytes", action="bitflip", arg=1))
        runtime.cache.put(job, baseline.payload)

        rerun = quiet_runtime(cache_dir=cache_root, jobs=1)
        outcome = rerun.run_one(job)
        # Depending on which bit flipped, the artifact either fails to
        # parse or fails its payload checksum — both must read as a
        # miss, never serve corrupt data.
        assert outcome.status == OK
        assert outcome.payload == baseline.payload
        assert health_snapshot()["fault.cache.corrupt_artifact"] == 1
        assert len(quarantined(cache_root)) == 1
        assert "corrupt artifact" in capsys.readouterr().err


class TestWriteFailure:
    def test_enospc_on_put_degrades_to_compute_through(
        self, arm, quiet_runtime, capsys
    ):
        jobs = echo_jobs(3)
        arm(
            FaultSpec(
                site="cache.put",
                action="oserror",
                arg=errno.ENOSPC,
                nth=1,
                count=99,
            )
        )
        runtime = quiet_runtime(jobs=1)
        outcomes = runtime.map(jobs)
        assert [o.status for o in outcomes] == [OK] * 3
        assert runtime.cache.degraded
        assert health_snapshot()["fault.cache.write_failed"] == 3
        err = capsys.readouterr().err
        assert err.count("compute-through") == 1  # warned once, not 3×

    def test_unwritable_cache_root_still_computes(self, quiet_runtime, tmp_path):
        # A *file* where the cache root should be: every mkdir/write
        # fails with a real OSError, no injection involved.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("cache root is unusable")
        runtime = quiet_runtime(cache_dir=blocker, jobs=1)
        outcomes = runtime.map(echo_jobs(2))
        assert [o.status for o in outcomes] == [OK] * 2
        assert runtime.cache.degraded
        assert health_snapshot()["fault.cache.write_failed"] == 2

    def test_unreadable_artifact_is_a_miss_not_a_crash(
        self, quiet_runtime, tmp_path
    ):
        job = echo_jobs(1)[0]
        cache_root = tmp_path / "cache"
        runtime = quiet_runtime(cache_dir=cache_root, jobs=1)
        baseline = runtime.run_one(job)
        # Replace the artifact with a directory: read_bytes → EISDIR.
        path = runtime.cache.path_for(job)
        path.unlink()
        path.mkdir()
        assert runtime.cache.get(job) is None
        assert health_snapshot()["fault.cache.read_failed"] == 1
        # And the runtime recomputes to the same payload.
        path.rmdir()
        rerun = quiet_runtime(cache_dir=cache_root, jobs=1)
        outcome = rerun.run_one(job)
        assert outcome.status == OK
        assert outcome.payload == baseline.payload
