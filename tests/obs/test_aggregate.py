"""Sweep aggregation: reading the scheduler's run log, job-span
reconstruction, the sweep summary's linkage check and stage histograms,
the merged scheduler trace, collecting one ``--obs`` directory, and
merging the runs' saved traces."""

import json

import pytest

from repro.obs import trace_context as tc
from repro.obs.aggregate import (
    RUNLOG,
    SUMMARY_SCHEMA,
    SweepArtifacts,
    build_job_spans,
    collect_artifacts,
    load_reports_from,
    load_runlog,
    scheduler_trace_events,
    sweep_summary,
    write_aggregate,
)
from repro.obs.export import chrome_trace, write_merged_trace
from repro.runtime import (
    EventBus,
    ExperimentRuntime,
    Job,
    ResultCache,
    RuntimeConfig,
)
from repro.runtime.events import JobEvent, JsonlSink, event_record

ROOT = tc.mint_root()

CRASH_ONCE = "tests.runtime.helper_jobs:crash_once_job"


def _job_ctx(job_hash):
    return tc.job_context(ROOT, job_hash)


def _ev(kind, wall_s, job_hash, label="mst", **extra):
    """One scheduler event the way the runtime emits it."""
    ctx = _job_ctx(job_hash)
    return JobEvent(
        event=kind,
        label=label,
        job_hash=job_hash,
        timestamp=wall_s,
        trace_id=ctx.trace_id,
        span_id=ctx.span_id,
        parent_span_id=ctx.parent_span_id,
        **extra,
    )


def _write_jsonl(path, events):
    path.write_text(
        "".join(
            json.dumps(event_record(e), sort_keys=True) + "\n" for e in events
        ),
        encoding="utf-8",
    )
    return path


def _phase(job_hash, name="l1filter.build", start_s=100.5, dur_us=2000):
    ctx = _job_ctx(job_hash)
    return {
        "name": name,
        "trace_id": ctx.trace_id,
        "span_id": tc._derive(ctx.span_id, "phase", name, "1"),
        "parent_span_id": ctx.span_id,
        "start_us": int(start_s * 1_000_000),
        "dur_us": dur_us,
        "pid": 4242,
    }


class TestLoadRunlog:
    def test_jobevent_records_round_trip(self, tmp_path):
        events = [
            _ev("queued", 50.0, "bbb", label="bh"),
            _ev("finished", 51.25, "bbb", label="bh", duration=1.0,
                references=1000),
        ]
        path = tmp_path / RUNLOG
        sink = JsonlSink(path)
        for event in events:
            sink.emit(event)
        sink.close()
        assert load_runlog(path) == events

    def test_torn_and_alien_lines_are_skipped(self, tmp_path):
        path = tmp_path / RUNLOG
        good = json.dumps(event_record(_ev("queued", 1.0, "ccc")))
        obs_shaped = json.dumps(
            {"kind": "runtime.queued", "t": 0, "seq": 1, "args": {}}
        )
        path.write_text(
            "\n".join([good, obs_shaped, '"scalar"', '{"event": "torn'])
            + "\n",
            encoding="utf-8",
        )
        assert [e.job_hash for e in load_runlog(path)] == ["ccc"]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_runlog(tmp_path / "nope.jsonl") == []


class TestBuildJobSpans:
    def test_lifecycle_reconstruction(self):
        events = [
            _ev("queued", 100.0, "aaa"),
            _ev("started", 100.5, "aaa"),
            _ev("finished", 102.5, "aaa", references=5000),
        ]
        (span,) = build_job_spans(events)
        data = span.to_dict()
        assert data["status"] == "finished"
        assert data["queue_wait_us"] == 500_000
        assert data["execute_us"] == 2_000_000
        assert data["references"] == 5000
        assert data["span_id"] == tc.span_for_job(ROOT.trace_id, "aaa")
        assert data["parent_span_id"] == ROOT.span_id

    def test_retry_counts_and_attempts(self):
        events = [
            _ev("queued", 10.0, "aaa"),
            _ev("started", 11.0, "aaa"),
            _ev("retried", 12.0, "aaa"),
            _ev("started", 13.0, "aaa", attempt=2),
            _ev("finished", 14.0, "aaa", attempt=2),
        ]
        (span,) = build_job_spans(events)
        assert span.retries == 1
        assert span.attempts == 2
        assert span.status == "finished"
        # First `started` wins: the span covers the whole job including
        # the crashed attempt.
        assert span.started_us == 11_000_000

    def test_cache_hit_is_terminal(self):
        (span,) = build_job_spans([_ev("cache-hit", 5.0, "aaa")])
        assert span.cache_hit
        assert span.status == "cache-hit"
        assert span.ended_us == 5_000_000

    def test_one_span_per_job_hash(self):
        events = [
            _ev("queued", 1.0, "aaa"),
            _ev("queued", 1.1, "bbb", label="bh"),
            _ev("finished", 2.0, "aaa"),
            _ev("finished", 2.1, "bbb", label="bh"),
        ]
        spans = build_job_spans(events)
        assert [s.label for s in spans] == ["mst", "bh"]


class TestSweepSummary:
    def _artifacts(self):
        events = [
            _ev("queued", 100.0, "aaa"),
            _ev("started", 100.2, "aaa"),
            _ev("retried", 101.0, "aaa"),
            _ev("finished", 102.0, "aaa", references=500),
            _ev("queued", 100.1, "bbb", label="bh"),
            _ev("cache-hit", 100.3, "bbb", label="bh"),
        ]
        return SweepArtifacts(
            job_events=events, phases=[_phase("aaa", start_s=100.5)]
        )

    def test_linkage_counters_and_stages(self):
        summary = sweep_summary(self._artifacts())
        assert summary["schema"] == SUMMARY_SCHEMA
        assert summary["traces"] == {
            ROOT.trace_id: {"root_span_id": ROOT.span_id}
        }
        jobs = summary["jobs"]
        assert jobs["jobs"] == 2
        assert jobs["finished"] == 1
        assert jobs["cache_hits"] == 1
        assert jobs["crash_retries"] == 1
        assert jobs["fault_recoveries"] == 1  # retried AND finished
        assert summary["unlinked_spans"] == []
        stages = summary["stages"]
        assert stages["queue_wait_us"]["count"] == 1
        assert stages["execute_us"]["count"] == 1
        assert stages["phase.l1filter.build_us"]["count"] == 1

    def test_unknown_parent_is_reported_unlinked(self):
        artifacts = self._artifacts()
        stray = _phase("aaa", name="stray")
        stray["parent_span_id"] = "feedfacefeedface"
        artifacts.phases.append(stray)
        summary = sweep_summary(artifacts)
        assert summary["unlinked_spans"] == [stray["span_id"]]


class TestSchedulerTrace:
    def test_root_span_and_wall_alignment(self):
        artifacts = SweepArtifacts(
            job_events=[
                _ev("queued", 100.0, "aaa"),
                _ev("started", 100.5, "aaa"),
                _ev("finished", 102.0, "aaa"),
            ]
        )
        events = scheduler_trace_events(artifacts)
        by_name = {e["name"]: e for e in events if e.get("ph") == "X"}
        sweep = by_name["sweep"]
        assert sweep["ts"] == 0
        assert sweep["args"]["span_id"] == ROOT.span_id
        assert by_name["queue-wait"]["ts"] == 0  # earliest wall == t0
        assert by_name["queue-wait"]["dur"] == 500_000
        assert by_name["finished"]["ts"] == 500_000
        assert by_name["finished"]["dur"] == 1_500_000

    def test_phase_lands_on_its_jobs_thread(self):
        artifacts = SweepArtifacts(
            job_events=[
                _ev("started", 100.0, "aaa"),
                _ev("finished", 102.0, "aaa"),
            ],
            phases=[_phase("aaa", start_s=100.5)],
        )
        events = scheduler_trace_events(artifacts)
        job_span = next(e for e in events if e["name"] == "finished")
        phase_span = next(e for e in events if e["name"] == "l1filter.build")
        assert phase_span["tid"] == job_span["tid"]
        assert not any(e["name"] == "(phases)" for e in events if e["ph"] == "M")

    def test_orphan_phase_gets_its_own_thread(self):
        stray = _phase("zzz")
        stray["parent_span_id"] = "feedfacefeedface"
        events = scheduler_trace_events(SweepArtifacts(phases=[stray]))
        names = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert "(phases)" in names


class TestCollectAndWrite:
    def _populate(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        _write_jsonl(
            directory / RUNLOG,
            [
                _ev("queued", 100.0, "aaa"),
                _ev("started", 100.2, "aaa"),
                _ev("finished", 101.0, "aaa"),
            ],
        )
        (directory / "phases.jsonl").write_text(
            json.dumps(_phase("aaa"), sort_keys=True) + "\n", encoding="utf-8"
        )

    def test_directory_collection(self, tmp_path):
        self._populate(tmp_path)
        artifacts = collect_artifacts(tmp_path)
        assert len(artifacts.job_events) == 3
        assert len(artifacts.phases) == 1

    def test_only_the_scheduler_runlog_is_read(self, tmp_path):
        # A --runlog file kept in the same directory repeats the
        # scheduler's events; only runtime.jsonl is the sweep's run log.
        self._populate(tmp_path)
        (tmp_path / "extra-runlog.jsonl").write_text(
            (tmp_path / RUNLOG).read_text(encoding="utf-8"), encoding="utf-8"
        )
        assert len(collect_artifacts(tmp_path).job_events) == 3

    def test_merged_outputs_never_feed_back(self, tmp_path):
        self._populate(tmp_path)
        write_aggregate(tmp_path)
        before = collect_artifacts(tmp_path)
        write_aggregate(tmp_path)  # second merge sees its own outputs
        after = collect_artifacts(tmp_path)
        assert len(after.job_events) == len(before.job_events)
        assert len(after.run_traces) == len(before.run_traces)

    def test_dropped_phase_spans_reach_the_summary(self, tmp_path):
        for _ in range(5000):
            with tc.phase("replay.chip"):
                pass
        tc.write_phases(tmp_path / "phases.jsonl")
        paths = write_aggregate(tmp_path)
        summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
        assert summary["phase_spans"] == tc.MAX_PHASES == 4096
        assert summary["phase_spans_dropped"] == 904
        assert summary["stages"]["phase.replay.chip_us"]["count"] == 4096

    def test_nothing_dropped_reads_zero(self, tmp_path):
        self._populate(tmp_path)
        paths = write_aggregate(tmp_path)
        summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
        assert summary["phase_spans"] == 1
        assert summary["phase_spans_dropped"] == 0

    def test_write_aggregate_artifacts(self, tmp_path):
        self._populate(tmp_path)
        paths = write_aggregate(tmp_path)
        trace = json.loads(paths["trace"].read_text(encoding="utf-8"))
        events = trace["traceEvents"]
        metadata_prefix = 0
        for event in events:
            if event["ph"] != "M":
                break
            metadata_prefix += 1
        assert metadata_prefix >= 1
        timed = [e.get("ts", 0) for e in events if e["ph"] != "M"]
        assert timed == sorted(timed)
        assert all(ts >= 0 for ts in timed)
        summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
        assert summary["schema"] == SUMMARY_SCHEMA
        assert summary["jobs"]["finished"] == 1
        assert summary["unlinked_spans"] == []

    def _save_runs(self, directory):
        """A probed chip and baseline over a trace that evicts in
        storms, rolls R-windows over and migrates, saved as
        ``run_table2_for`` saves them."""
        from repro.caches.hierarchy import SingleCoreHierarchy
        from repro.multicore.chip import MultiCoreChip
        from repro.obs import SimProbe, save_report
        from tests.kernels.helpers import (
            PROBE_SHAPES,
            SMALL_CACHES,
            eventful_trace,
        )

        arrays = eventful_trace(7)
        models = {
            "baseline": lambda probe: SingleCoreHierarchy(
                SMALL_CACHES, probe=probe
            ),
            "chip": lambda probe: MultiCoreChip(
                PROBE_SHAPES["four_core"], probe=probe
            ),
        }
        for run, make_model in models.items():
            probe = SimProbe(name=run, sample_interval=97)
            make_model(probe).run_arrays(*arrays)
            save_report(
                probe.report(workload="w", run=run),
                directory,
                f"table2-w-{run}",
            )

    def test_merged_trace_equals_the_one_rebuilt_from_events(self, tmp_path):
        # The saved traces hold what chrome_trace builds from the
        # reports decoded back from metrics.json and events.jsonl; only
        # the key order of instant args may differ (emit order against
        # sorted), which parsed JSON does not see.
        self._populate(tmp_path)
        self._save_runs(tmp_path)
        paths = write_aggregate(tmp_path)
        scheduler = scheduler_trace_events(collect_artifacts(tmp_path))
        rebuilt = tmp_path / "rebuilt.json"
        write_merged_trace(
            [{"traceEvents": scheduler}]
            + [chrome_trace(report) for report in load_reports_from(tmp_path)],
            rebuilt,
        )
        merged = json.loads(paths["trace"].read_text(encoding="utf-8"))
        assert merged == json.loads(rebuilt.read_text(encoding="utf-8"))
        kinds = {
            e["name"] for e in merged["traceEvents"] if e.get("cat") == "sim"
        }
        assert {
            "l2.eviction_storm",
            "window.rollover",
            "controller.transition",
        } <= kinds
        summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
        assert summary["reports"] == 2

    @pytest.mark.parametrize("damage", ["missing", "torn"])
    def test_a_run_without_its_trace_is_left_out(self, tmp_path, damage):
        self._save_runs(tmp_path)
        trace = tmp_path / "table2-w-chip.trace.json"
        if damage == "missing":
            trace.unlink()
        else:
            trace.write_text(trace.read_text(encoding="utf-8")[:100])
        paths = write_aggregate(tmp_path)
        merged = json.loads(paths["trace"].read_text(encoding="utf-8"))
        processes = [
            e["args"]["name"]
            for e in merged["traceEvents"]
            if e["name"] == "process_name"
        ]
        assert processes == ["w/baseline"]
        summary = json.loads(paths["summary"].read_text(encoding="utf-8"))
        assert summary["reports"] == 1


class TestCrashRetryCount:
    def test_one_crash_counts_once_beside_a_second_runlog(self, tmp_path):
        # ``run_all --obs DIR --runlog DIR/other.jsonl``: two sinks log
        # the same events, and the one crash must still count once.
        obs_dir = tmp_path / "obs"
        runtime = ExperimentRuntime(
            config=RuntimeConfig(jobs=2, retries=1, use_cache=False),
            cache=ResultCache(root=tmp_path / "cache"),
            bus=EventBus(
                [
                    JsonlSink(obs_dir / RUNLOG),
                    JsonlSink(obs_dir / "chaos-runlog.jsonl"),
                ]
            ),
        )
        (outcome,) = runtime.map(
            [Job.create(CRASH_ONCE, marker_path=str(tmp_path / "marker"))]
        )
        runtime.close()
        assert outcome.ok
        summary = sweep_summary(collect_artifacts(obs_dir))
        assert (
            summary["jobs"]["crash_retries"]
            == runtime.stats.crash_retries
            == 1
        )
