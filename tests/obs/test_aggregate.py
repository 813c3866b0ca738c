"""Sweep aggregation: run-log loading in both wire shapes, job-span
reconstruction across process-local logs, the sweep summary's linkage
check and stage histograms, and the merged scheduler trace."""

import json

from repro.obs import trace_context as tc
from repro.obs.aggregate import (
    SUMMARY_SCHEMA,
    SweepArtifacts,
    build_job_spans,
    build_sweep_trace,
    collect_artifacts,
    load_runlog,
    resolve_inputs,
    scheduler_trace_events,
    sweep_summary,
    write_aggregate,
)
from repro.obs.events import SimEvent
from repro.runtime.events import JobEvent, event_record

ROOT = tc.mint_root(seed="aggregate-tests")


def _job_ctx(job_hash):
    return tc.job_context(ROOT, job_hash)


def _ev(kind, wall_s, seq, job_hash, label="mst", **extra):
    """One bridged scheduler event the way ObsRunlogSink writes it."""
    ctx = _job_ctx(job_hash)
    args = {
        "label": label,
        "job_hash": job_hash,
        "attempt": 1,
        "wall_us": int(wall_s * 1_000_000),
        "trace_id": ctx.trace_id,
        "span_id": ctx.span_id,
        "parent_span_id": ctx.parent_span_id,
    }
    args.update(extra)
    return SimEvent(kind=f"runtime.{kind}", t=int(wall_s * 1_000_000), seq=seq, args=args)


def _write_jsonl(path, events):
    path.write_text(
        "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in events),
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
    def test_obs_wire_shape(self, tmp_path):
        path = _write_jsonl(
            tmp_path / "runtime.jsonl",
            [_ev("queued", 100.0, 1, "aaa"), _ev("finished", 101.0, 2, "aaa")],
        )
        events = load_runlog(path)
        assert [e.kind for e in events] == ["runtime.queued", "runtime.finished"]
        assert events[0].args["wall_us"] == 100_000_000

    def test_raw_jobevent_shape_is_bridged(self, tmp_path):
        ctx = _job_ctx("bbb")
        raw = [
            JobEvent(
                event="queued",
                label="bh",
                job_hash="bbb",
                timestamp=50.0,
                trace_id=ctx.trace_id,
                span_id=ctx.span_id,
                parent_span_id=ctx.parent_span_id,
            ),
            JobEvent(
                event="finished",
                label="bh",
                job_hash="bbb",
                timestamp=51.0,
                duration=1.0,
                references=1000,
            ),
        ]
        path = tmp_path / "run.jsonl"
        path.write_text(
            "".join(
                json.dumps(event_record(e), sort_keys=True) + "\n" for e in raw
            ),
            encoding="utf-8",
        )
        events = load_runlog(path)
        assert [e.kind for e in events] == ["runtime.queued", "runtime.finished"]
        assert events[0].args["span_id"] == ctx.span_id
        assert events[0].args["wall_us"] == 50_000_000
        assert events[1].args["references"] == 1000

    def test_torn_and_alien_lines_are_skipped(self, tmp_path):
        path = tmp_path / "runtime.jsonl"
        good = json.dumps(_ev("queued", 1.0, 1, "ccc").to_dict())
        path.write_text(
            good + "\n" + '{"kind": "torn' + "\n" + '"scalar"\n', encoding="utf-8"
        )
        assert len(load_runlog(path)) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert load_runlog(tmp_path / "nope.jsonl") == []


class TestBuildJobSpans:
    def test_lifecycle_reconstruction(self):
        events = [
            _ev("queued", 100.0, 1, "aaa"),
            _ev("started", 100.5, 2, "aaa"),
            _ev("finished", 102.5, 3, "aaa", references=5000),
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
            _ev("queued", 10.0, 1, "aaa"),
            _ev("started", 11.0, 2, "aaa"),
            _ev("retried", 12.0, 3, "aaa"),
            _ev("started", 13.0, 4, "aaa", attempt=2),
            _ev("finished", 14.0, 5, "aaa", attempt=2),
        ]
        (span,) = build_job_spans(events)
        assert span.retries == 1
        assert span.attempts == 2
        assert span.status == "finished"
        # First `started` wins: the span covers the whole job including
        # the crashed attempt.
        assert span.started_us == 11_000_000

    def test_cache_hit_is_terminal(self):
        (span,) = build_job_spans([_ev("cache-hit", 5.0, 1, "aaa")])
        assert span.cache_hit
        assert span.status == "cache-hit"
        assert span.ended_us == 5_000_000

    def test_cross_runlog_ordering_uses_wall_clock(self):
        # Two processes wrote independent logs: seq restarts at 1 in
        # each, so ordering must come from the shared wall clock.
        other_log = [_ev("queued", 100.0, 7, "aaa")]
        scheduler_log = [
            _ev("started", 101.0, 1, "aaa"),
            _ev("finished", 103.0, 2, "aaa"),
        ]
        (span,) = build_job_spans(scheduler_log + other_log)
        assert span.to_dict()["queue_wait_us"] == 1_000_000

    def test_one_span_per_job_hash(self):
        events = [
            _ev("queued", 1.0, 1, "aaa"),
            _ev("queued", 1.1, 2, "bbb", label="bh"),
            _ev("finished", 2.0, 3, "aaa"),
            _ev("finished", 2.1, 4, "bbb", label="bh"),
        ]
        spans = build_job_spans(events)
        assert [s.label for s in spans] == ["mst", "bh"]


class TestSweepSummary:
    def _artifacts(self):
        events = [
            _ev("queued", 100.0, 1, "aaa"),
            _ev("started", 100.2, 2, "aaa"),
            _ev("retried", 101.0, 3, "aaa"),
            _ev("finished", 102.0, 4, "aaa", references=500),
            _ev("queued", 100.1, 5, "bbb", label="bh"),
            _ev("cache-hit", 100.3, 6, "bbb", label="bh"),
        ]
        return SweepArtifacts(
            runtime_events=events, phases=[_phase("aaa", start_s=100.5)]
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
            runtime_events=[
                _ev("queued", 100.0, 1, "aaa"),
                _ev("started", 100.5, 2, "aaa"),
                _ev("finished", 102.0, 3, "aaa"),
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
            runtime_events=[
                _ev("started", 100.0, 1, "aaa"),
                _ev("finished", 102.0, 2, "aaa"),
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
            directory / "runtime.jsonl",
            [
                _ev("queued", 100.0, 1, "aaa"),
                _ev("started", 100.2, 2, "aaa"),
                _ev("finished", 101.0, 3, "aaa"),
            ],
        )
        (directory / "phases.jsonl").write_text(
            json.dumps(_phase("aaa"), sort_keys=True) + "\n", encoding="utf-8"
        )

    def test_directory_collection(self, tmp_path):
        self._populate(tmp_path)
        artifacts = collect_artifacts([tmp_path])
        assert len(artifacts.runtime_events) == 3
        assert len(artifacts.phases) == 1

    def test_glob_and_file_inputs(self, tmp_path):
        self._populate(tmp_path / "a")
        self._populate(tmp_path / "b")
        artifacts = collect_artifacts([str(tmp_path / "*" / "runtime.jsonl")])
        assert len(artifacts.runtime_events) == 6

    def test_resolve_inputs_expands_globs_only(self, tmp_path):
        (tmp_path / "x.jsonl").touch()
        (tmp_path / "y.jsonl").touch()
        globbed = resolve_inputs([str(tmp_path / "*.jsonl")])
        assert [p.name for p in globbed] == ["x.jsonl", "y.jsonl"]
        plain = resolve_inputs(["no-glob-here.jsonl"])
        assert [str(p) for p in plain] == ["no-glob-here.jsonl"]

    def test_merged_outputs_never_feed_back(self, tmp_path):
        self._populate(tmp_path)
        write_aggregate(tmp_path)
        before = collect_artifacts([tmp_path])
        write_aggregate(tmp_path)  # second merge sees its own outputs
        after = collect_artifacts([tmp_path])
        assert len(after.runtime_events) == len(before.runtime_events)
        assert len(after.reports) == len(before.reports)

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
