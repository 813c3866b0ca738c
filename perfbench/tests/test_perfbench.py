"""Tests of the benchmark's own checks, on members small enough to run
in a second: ``PYTHONPATH=src python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import run as bench_run
from perfbench.make_pins import pin_member
from perfbench.round import REBUILT, prebuild, run_round
from perfbench.suite import (
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    Member,
    Workload,
    better,
    compare,
    property_problems,
)
from perfbench.traced import self_times, sidecar_path

ROOT = Path(__file__).resolve().parents[2]

#: an Olden member (trace memo) and a SPEC member, neither of which
#: migrates at these scales — no property applies to them
TINY = (Member("bh", 0.01), Member("300.twolf", 0.005))
COLD = Workload("tiny-cold", "table2", TINY)
WARM_OBS = Workload("tiny-obs", "table2", TINY, warm=True, obs=True)
SWEEP = Workload("tiny-sweep", "sweep", TINY, warm=True)


def _pins(workload: Workload, tmp_path: Path, monkeypatch) -> dict:
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pins-cache"))
    return {
        m.id: pin_member(workload, m, None, tmp_path / "pins-obs")
        for m in workload.members
    }


def _enter_round(tmp_path: Path, monkeypatch, cache_env: bool = True) -> Path:
    """Make a fresh round directory the working directory and return
    its cache root, which ``REPRO_CACHE_DIR`` names unless told not to."""
    directory = tmp_path / "round"
    directory.mkdir()
    monkeypatch.chdir(directory)
    if cache_env:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(directory / "cache"))
    else:
        monkeypatch.delenv("REPRO_CACHE_DIR")
    return directory / "cache"


def _problems(result: dict) -> "dict[str, list[str]]":
    return {job["id"]: job["problems"] for job in result["jobs"] if job["problems"]}


def test_cold_round_builds_every_trace_and_record_in_its_own_cache(
    tmp_path, monkeypatch
):
    pins = _pins(COLD, tmp_path, monkeypatch)
    cache = _enter_round(tmp_path, monkeypatch)
    result = run_round(COLD, None, pins, cache)
    assert _problems(result) == {}
    for m in TINY:
        assert sidecar_path(m.name, m.scale, None).parent.parent == cache
        assert sidecar_path(m.name, m.scale, None).is_file()
    assert list(cache.rglob("traces/olden-bh-*.npz"))
    assert not Path(".repro-cache").exists()


def test_cold_round_refuses_a_cache_that_existed(tmp_path, monkeypatch):
    pins = _pins(COLD, tmp_path, monkeypatch)
    cache = _enter_round(tmp_path, monkeypatch)
    cache.mkdir()
    result = run_round(COLD, None, pins, cache)
    assert all(
        "cache existed before a cold round" in problems
        for problems in _problems(result).values()
    )
    assert len(_problems(result)) == len(TINY)


def test_runtime_cache_dir_alone_leaks_into_the_default_root(tmp_path, monkeypatch):
    # The runtime's cache dir does not reach ensure_l1_filter or the
    # Olden trace memo; only REPRO_CACHE_DIR does.  The check sees it.
    pins = _pins(COLD, tmp_path, monkeypatch)
    cache = _enter_round(tmp_path, monkeypatch, cache_env=False)
    result = run_round(COLD, None, pins, cache)
    problems = _problems(result)
    assert Path(".repro-cache").exists()
    assert all(
        "wrote under ./.repro-cache instead of REPRO_CACHE_DIR" in p
        for p in problems.values()
    )
    assert all("record was not built" in problems[m.id] for m in TINY)


def test_warm_round_loads_every_record_and_writes_probe_artifacts(
    tmp_path, monkeypatch
):
    pins = _pins(WARM_OBS, tmp_path, monkeypatch)
    cache = _enter_round(tmp_path, monkeypatch)
    prebuild(WARM_OBS, None, cache)
    for traced in (False, True):
        result = run_round(WARM_OBS, None, pins, cache, traced=traced)
        assert _problems(result) == {}
    assert result["layers"]["l1filter.rebuilds"] == 0
    assert result["layers"]["obs.replay_s"] > 0
    assert Path("obs", "sweep_summary.json").is_file()


def test_warm_round_reports_a_record_rebuilt_in_the_timed_region(
    tmp_path, monkeypatch
):
    pins = _pins(SWEEP, tmp_path, monkeypatch)
    cache = _enter_round(tmp_path, monkeypatch)
    prebuild(SWEEP, None, cache)
    # A corrupt sidecar is quarantined and rebuilt by the timed region.
    sidecar_path("bh", 0.01, None).write_bytes(b"not an npz")
    result = run_round(SWEEP, None, pins, cache, traced=True)
    problems = _problems(result)
    variants = ("baseline", "migration", "no-l2-filter")
    assert set(problems) == {f"bh@0.01/{v}" for v in variants}
    assert all(REBUILT in p for p in problems.values())
    assert result["layers"]["l1filter.rebuilds"] == 1


def test_corrupted_pin_is_reported_as_a_failed_job(tmp_path, monkeypatch):
    pins = _pins(COLD, tmp_path, monkeypatch)
    pins["bh@0.01"]["output"]["l2_misses_migrating"] += 1
    cache = _enter_round(tmp_path, monkeypatch)
    result = run_round(COLD, None, pins, cache)
    assert list(_problems(result)) == ["bh@0.01"]
    assert "l2_misses_migrating: pinned" in _problems(result)["bh@0.01"][0]
    summary = bench_run.summarize(pins, [result], [])
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["end_to_end"]["wall_s"][0] == result["wall_s"]


def test_compare_is_exact_on_counts_and_flags():
    pinned = {"a": 1, "b": [0.5, 0.25], "c": True}
    assert compare(pinned, {"a": 1, "b": [0.5, 0.25], "c": True}) == []
    assert compare(pinned, {"a": 2, "b": [0.5, 0.25], "c": True}) == [
        "a: pinned 1, got 2"
    ]
    assert compare(pinned, {"a": 1, "b": [0.5, 0.26], "c": 1}) == [
        "b.1: pinned 0.25, got 0.26",
        "c: pinned True, got 1",
    ]
    assert compare(pinned, {"a": 1, "b": [0.5]}) == [
        "b: pinned [0.5, 0.25], got [0.5]",
        "c: missing",
    ]


def test_property_checks_name_the_lost_property():
    table2 = WORKLOADS["table2-cold"]
    assert property_problems(table2, Member("179.art", 0.05), {"migrations": 0}) == [
        "179.art@0.05 no longer migrates"
    ]
    assert property_problems(table2, Member("164.gzip", 0.05), {"migrations": 3})
    assert property_problems(table2, Member("164.gzip", 0.05), {"migrations": 2}) == []


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": "w", "parent": None, "name": "workload", "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "w", "name": "job", "start": 1.0, "end": 6.0},
        {"id": "b", "parent": "w", "name": "job", "start": 4.0, "end": 8.0},
        {"id": "c", "parent": "a", "name": "chip.replay", "start": 2.0, "end": 9.0},
    ]
    own = self_times(spans)
    assert own["workload"] == pytest.approx(10.0 - 7.0)
    assert own["job"] == pytest.approx((5.0 - 4.0) + 4.0)
    assert own["chip.replay"] == pytest.approx(7.0)


def test_benchmark_json_lists_the_suite_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better(name, unit)) for name, unit in PER_LAYER
    ]


def test_pins_cover_every_member_at_both_input_sets():
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS.values():
        for inputs in ("default", "held-out"):
            assert set(pins["workloads"][workload.name][inputs]) == {
                m.id for m in workload.members
            }
