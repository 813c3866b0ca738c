"""Population-sweep chaos: a worker dies mid-sweep, the sweep self-heals.

The population path runs its l1filter job and then its variants over
the ordinary scheduler, so its recovery contract is the ordinary one: a
killed worker is retried and the rows come out bit-identical to an
undisturbed run.
"""

import pytest

from repro.faults import FaultSpec
from repro.experiments.variants import run_population
from repro.runtime.health import health_snapshot

SCALE = 0.1

#: the stat keys a chaos run must reproduce bit-identically
STAT_KEYS = ("variant", "l1_misses", "l2_accesses", "l2_misses", "migrations")


@pytest.fixture(autouse=True)
def _population_isolation(tmp_path, monkeypatch):
    """Private cache root (workers inherit it)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestPopulationWorkerKill:
    def test_killed_worker_is_retried_bit_identical(
        self, arm, quiet_runtime, tmp_path
    ):
        baseline = run_population("mst", scale=SCALE)

        # SIGKILL the second worker launch (the l1filter job takes the
        # first): one variant dies mid-replay.
        arm(FaultSpec(site="runtime.worker.kill", action="crash", nth=2))
        runtime = quiet_runtime(cache_dir=tmp_path / "chaos", jobs=2)
        result = run_population("mst", scale=SCALE, runtime=runtime)

        assert runtime.stats.crash_retries == 1
        health = health_snapshot()
        assert health["fault.worker.crash"] == 1
        assert health["recovery.worker.crash_retried"] == 1

        # the killed attempt returned no row: the retried sweep counts
        # the l1filter job's read and one per variant, and its rows are
        # bit-identical to the undisturbed serial run
        assert result.shared_record_loads == 4
        assert [
            {key: row[key] for key in STAT_KEYS} for row in result.rows
        ] == [{key: row[key] for key in STAT_KEYS} for row in baseline.rows]
