"""Kill a sweep driver mid-flight; restart; lose only in-flight work.

The acceptance scenario: a driver dies hard — SIGKILL
semantics, no cleanup — partway through a sweep.  A restart against the
same checkpoint journal recomputes *only* the jobs that had not
finished, and the final outcome set is identical to an undisturbed run.
"""

import json
import os
import subprocess
import sys

from repro import faults
from repro.faults import FaultPlan, FaultSpec

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
DRIVER = os.path.join(REPO_ROOT, "tests", "chaos", "driver.py")


def run_driver(checkpoint, count, plan=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
    )
    if plan is not None:
        env[faults.FAULTS_ENV] = plan.to_json()
    else:
        env.pop(faults.FAULTS_ENV, None)
    return subprocess.run(
        [sys.executable, DRIVER, str(checkpoint), str(count)],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


class TestDriverKilledMidSweep:
    def test_restart_recomputes_only_inflight_jobs(self, tmp_path):
        checkpoint = tmp_path / "sweep.ckpt"

        # Kill the driver as job 3 (arrival 3) starts: jobs 1-2 are
        # journaled, job 3 was in flight, jobs 4-5 never started.
        plan = FaultPlan.of(
            FaultSpec(site="runtime.job.start", action="crash", nth=3)
        )
        crashed = run_driver(checkpoint, 5, plan=plan)
        assert crashed.returncode == faults.CRASH_EXIT_CODE
        assert crashed.stdout == ""  # died mid-sweep, no summary line
        journal = [
            json.loads(line)
            for line in checkpoint.read_text().splitlines()
        ]
        assert [record["kind"] for record in journal] == [
            "header",
            "done",
            "done",
        ]

        # Restart, no faults: completed jobs come from the journal.
        resumed = run_driver(checkpoint, 5)
        assert resumed.returncode == 0, resumed.stderr
        statuses = json.loads(resumed.stdout)
        assert statuses == ["cached", "cached", "ok", "ok", "ok"]

        # A third run is pure journal hits.
        rerun = run_driver(checkpoint, 5)
        assert json.loads(rerun.stdout) == ["cached"] * 5

    def test_kill_during_journal_append_is_recoverable(self, tmp_path):
        checkpoint = tmp_path / "sweep.ckpt"
        complete = run_driver(checkpoint, 3)
        assert json.loads(complete.stdout) == ["ok"] * 3

        # Simulate the kill landing mid-append: tear the final record.
        raw = checkpoint.read_bytes()
        checkpoint.write_bytes(raw[:-9])

        resumed = run_driver(checkpoint, 3)
        assert resumed.returncode == 0, resumed.stderr
        # The torn record's job recomputes; the intact ones resume.
        assert json.loads(resumed.stdout) == ["cached", "cached", "ok"]
