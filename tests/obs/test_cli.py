"""``python -m repro.obs`` subcommands over an artifact directory."""

import json

import pytest

from repro.obs import events as ev
from repro.obs.aggregate import RUNLOG, load_reports_from
from repro.obs.cli import main
from repro.obs.events import SimEvent
from repro.obs.export import save_report
from repro.obs.probe import ObsReport
from repro.runtime.events import JobEvent, JsonlSink


@pytest.fixture
def obs_dir(tmp_path):
    report = ObsReport(
        meta={
            "workload": "mst",
            "run": "chip",
            "references": 1000,
            "num_cores": 4,
            "chip_stats": {"accesses": 1000, "migrations": 2, "l2_misses": 30},
        },
        metrics={"migrations": {"type": "counter", "value": 2}},
        events=[
            SimEvent(
                kind=ev.MIGRATION_COMMIT,
                t=500,
                seq=1,
                args={"from_core": 0, "to_core": 1},
            )
        ],
    )
    save_report(report, tmp_path, "table2-mst-chip")
    sink = JsonlSink(tmp_path / RUNLOG)
    sink.emit(
        JobEvent(
            event="started",
            label="table2/mst",
            job_hash="h",
            timestamp=99.0,
        )
    )
    sink.emit(
        JobEvent(
            event="finished",
            label="table2/mst",
            job_hash="h",
            timestamp=100.0,
            duration=1.0,
        )
    )
    sink.close()
    return tmp_path


class TestLoadReports:
    def test_rebuilds_meta_metrics_events(self, obs_dir):
        reports = load_reports_from(obs_dir)
        assert len(reports) == 1
        report = reports[0]
        assert report.meta["workload"] == "mst"
        assert report.metrics["migrations"]["value"] == 2
        assert report.events[0].kind == ev.MIGRATION_COMMIT

    def test_corrupt_metrics_file_is_skipped(self, obs_dir):
        (obs_dir / "bad.metrics.json").write_text("{")
        assert len(load_reports_from(obs_dir)) == 1


class TestSummarize:
    def test_prints_rows_census_and_merged_counters(self, obs_dir, capsys):
        assert main(["summarize", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "mst/chip" in out
        assert ev.MIGRATION_COMMIT in out
        assert "chip counters" in out
        assert "scheduler events: 2" in out

    def test_empty_directory_fails(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path)]) == 1
        assert "no obs artifacts" in capsys.readouterr().err

    def test_runlog_only_inputs_summarize_stages(self, obs_dir, capsys):
        for report_file in obs_dir.glob("table2-mst-chip.*"):
            report_file.unlink()
        assert main(["summarize", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "mst/chip" not in out
        assert "scheduler events: 2" in out
        assert "execute_us" in out


class TestExport:
    def test_writes_merged_perfetto_document(self, obs_dir, capsys):
        assert main(["export", str(obs_dir)]) == 0
        document = json.loads((obs_dir / "trace.json").read_text())
        events = document["traceEvents"]
        assert events
        cats = {e.get("cat") for e in events} - {None}
        assert {"execution", "runtime"} <= cats

    def test_empty_directory_fails(self, tmp_path, capsys):
        assert main(["export", str(tmp_path)]) == 1
        assert "no trace artifacts" in capsys.readouterr().err
