"""Exporters: span reconstruction, Chrome traces, artifacts, summaries."""

import json

from repro.obs import events as ev
from repro.obs.events import SimEvent
from repro.obs.export import (
    chrome_trace,
    execution_spans,
    load_events_jsonl,
    safe_stem,
    save_report,
    summarize_reports,
    write_events_jsonl,
    write_merged_trace,
)
from repro.obs.probe import ObsReport


def _commit(t, frm, to, seq=0):
    return SimEvent(
        kind=ev.MIGRATION_COMMIT,
        t=t,
        seq=seq,
        args={"from_core": frm, "to_core": to},
    )


def _merged(documents, tmp_path):
    """The merged trace document of ``documents``, as written."""
    path = tmp_path / "merged.trace.json"
    write_merged_trace(documents, path)
    return json.loads(path.read_text(encoding="utf-8"))


def _report(events=(), meta=None, metrics=None):
    return ObsReport(
        meta={"workload": "w", "references": 100, "num_cores": 4, **(meta or {})},
        metrics=metrics or {},
        events=list(events),
    )


class TestExecutionSpans:
    def test_no_migrations_is_one_span(self):
        assert execution_spans([], total_refs=50) == [(0, 0, 50)]

    def test_spans_partition_the_run(self):
        events = [_commit(10, 0, 2), _commit(30, 2, 1)]
        spans = execution_spans(events, total_refs=50)
        assert spans == [(0, 0, 10), (2, 10, 30), (1, 30, 50)]
        # Partition: contiguous, covers [0, total_refs].
        assert spans[0][1] == 0 and spans[-1][2] == 50
        assert all(a[2] == b[1] for a, b in zip(spans, spans[1:]))

    def test_non_commit_events_are_ignored(self):
        events = [
            SimEvent(kind=ev.FILTER_FLIP, t=5),
            _commit(10, 0, 3),
        ]
        assert execution_spans(events, total_refs=20) == [(0, 0, 10), (3, 10, 20)]


class TestChromeTrace:
    def test_document_loads_and_names_cores(self):
        document = chrome_trace(_report([_commit(10, 0, 1)]))
        document = json.loads(json.dumps(document))  # JSON-clean
        events = document["traceEvents"]
        thread_names = [
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        ]
        assert [f"core {i}" for i in range(4)] == thread_names[:4]
        spans = [e for e in events if e["ph"] == "X"]
        assert {(s["tid"], s["ts"], s["dur"]) for s in spans} == {
            (0, 0, 10),
            (1, 10, 90),
        }

    def test_instants_and_counters_exported(self):
        report = _report(
            [SimEvent(kind=ev.FILTER_FLIP, t=7, args={"filter": "F_X"})],
            metrics={
                "bus.bytes_per_ref": {
                    "type": "series",
                    "samples": [[10, 1.5], [20, 2.5]],
                },
                "migrations": {"type": "counter", "value": 3},
            },
        )
        events = chrome_trace(report)["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["name"] == ev.FILTER_FLIP
        counters = [e for e in events if e["ph"] == "C"]
        assert [(c["ts"], c["args"]["value"]) for c in counters] == [
            (10, 1.5),
            (20, 2.5),
        ]

    def test_label_includes_run_meta(self):
        document = chrome_trace(_report(meta={"run": "chip"}))
        process = document["traceEvents"][0]
        assert process["args"]["name"] == "w/chip"

    def test_merge_remaps_pids_disjointly(self, tmp_path):
        d1 = chrome_trace(_report(), pid=1)
        d2 = chrome_trace(_report(), pid=1)
        merged = _merged([d1, d2], tmp_path)
        pids = {e["pid"] for e in merged["traceEvents"]}
        assert len(pids) == 2

    def test_merge_orders_metadata_first_then_sorted_ts(self, tmp_path):
        # Two run logs whose events interleave non-monotonically once
        # concatenated: the merged document must put every metadata
        # event first and every timed event in ts order, or strict
        # Perfetto importers reject it.
        d1 = {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 1, "args": {}},
                {"name": "late", "ph": "X", "pid": 1, "ts": 900, "dur": 5},
                {"name": "early", "ph": "X", "pid": 1, "ts": 10, "dur": 5},
            ]
        }
        d2 = {
            "traceEvents": [
                {"name": "mid", "ph": "i", "s": "t", "pid": 1, "ts": 400},
                {"name": "process_name", "ph": "M", "pid": 1, "args": {}},
            ]
        }
        merged = _merged([d1, d2], tmp_path)["traceEvents"]
        phs = [e["ph"] for e in merged]
        assert phs == sorted(phs, key=lambda p: p != "M")  # M block first
        timed = [e["ts"] for e in merged if e["ph"] != "M"]
        assert timed == sorted(timed)
        assert [e["name"] for e in merged if e["ph"] != "M"] == [
            "early",
            "mid",
            "late",
        ]

    def test_merge_clamps_negative_ts_and_keeps_stable_order(self, tmp_path):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "X", "pid": 1, "ts": -50, "dur": 1},
                {"name": "b", "ph": "X", "pid": 1, "ts": -10, "dur": 1},
                {"name": "c", "ph": "i", "s": "t", "pid": 1, "ts": 0},
            ]
        }
        merged = _merged([doc], tmp_path)["traceEvents"]
        assert all(e["ts"] >= 0 for e in merged)
        # All three collapse to ts=0; the stable sort keeps input order.
        assert [e["name"] for e in merged] == ["a", "b", "c"]


class TestArtifacts:
    def test_events_jsonl_round_trip(self, tmp_path):
        events = [
            _commit(5, 0, 1, seq=1),
            SimEvent(kind=ev.WINDOW_ROLLOVER, t=9, seq=2, args={"mechanism": "R_X"}),
        ]
        path = write_events_jsonl(events, tmp_path / "e.jsonl")
        assert load_events_jsonl(path) == events

    def test_save_report_writes_artifact_triple(self, tmp_path):
        paths = save_report(_report([_commit(10, 0, 1)]), tmp_path, "t2/mst")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "t2-mst.events.jsonl",
            "t2-mst.metrics.json",
            "t2-mst.trace.json",
        ]
        metrics = json.loads(paths["metrics"].read_text())
        assert metrics["meta"]["workload"] == "w"
        assert metrics["event_kinds"] == {ev.MIGRATION_COMMIT: 1}
        trace = json.loads(paths["trace"].read_text())
        assert trace["traceEvents"]

    def test_safe_stem(self):
        assert safe_stem("table2/181.mcf") == "table2-181.mcf"
        assert safe_stem("///") == "obs"


class TestSummaries:
    def test_summarize_renders_counts_and_census(self):
        report = _report(
            [SimEvent(kind=ev.FILTER_FLIP, t=1), _commit(2, 0, 1)],
            meta={"run": "chip"},
            metrics={
                "migrations": {"type": "counter", "value": 1},
                "filter.flips": {"type": "counter", "value": 1},
            },
        )
        text = summarize_reports([report])
        assert "w/chip" in text
        assert ev.FILTER_FLIP in text
        assert ev.MIGRATION_COMMIT in text

    def test_dropped_events_are_visible(self):
        report = _report()
        report.dropped_events = 12
        assert "+12 dropped" in summarize_reports([report])
