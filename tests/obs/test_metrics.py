"""Metrics primitives: counters, histograms, series, the registry."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)


class TestCounter:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.to_dict() == {"type": "counter", "value": 5}


class TestHistogram:
    def test_counts_and_edges(self):
        h = Histogram()
        for v in (1, 2, 3, 100, 1000):
            h.record(v)
        assert h.count == 5
        assert h.min == 1
        assert h.max == 1000
        assert h.mean == pytest.approx(1106 / 5)

    def test_percentile_relative_error_is_bounded(self):
        # HDR layout: a bucket floor is within 1/sub_buckets of the value.
        h = Histogram(sub_buckets=16)
        for v in range(1, 10_000):
            h.record(v)
        for p in (50, 95, 99):
            exact = p / 100 * 9_999
            approx = h.percentile(p)
            assert approx <= exact
            assert approx >= exact * (1 - 1 / 16) - 1

    def test_values_below_one_land_in_bucket_zero(self):
        h = Histogram()
        h.record(0)
        h.record(-5)
        assert h.buckets == {0: 2}
        assert h.percentile(50) == 0.0

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(99) == 0.0

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_to_dict_is_json_serialisable(self):
        h = Histogram()
        for v in (7, 70, 700):
            h.record(v)
        json.dumps(h.to_dict())

    def test_single_sample_quantiles_are_exact(self):
        # One queue-wait sample is common (a one-job sweep); every
        # quantile of it must be that sample, not a bucket floor.
        h = Histogram()
        h.record(1234)
        for p in (0, 50, 99, 100):
            assert h.percentile(p) == 1234.0

    def test_p0_and_p100_are_exact_extremes(self):
        h = Histogram()
        for v in (17, 500, 9001):
            h.record(v)
        assert h.percentile(0) == 17.0
        assert h.percentile(100) == 9001.0

    def test_empty_extreme_quantiles_are_zero(self):
        assert Histogram().percentile(0) == 0.0
        assert Histogram().percentile(100) == 0.0


class TestTimeSeries:
    def test_appends_below_cap(self):
        s = TimeSeries(max_samples=8)
        for t in range(5):
            s.append(t, float(t))
        assert s.samples == [(t, float(t)) for t in range(5)]
        assert s.stride == 1

    def test_decimates_and_doubles_stride_on_overflow(self):
        s = TimeSeries(max_samples=8)
        for t in range(64):
            s.append(t, float(t))
        # Memory stays bounded, the sketch stays evenly spaced.
        assert len(s.samples) < 8
        assert s.stride > 1
        times = [t for t, _ in s.samples]
        assert times == sorted(times)
        gaps = {b - a for a, b in zip(times, times[1:])}
        # Roughly even spacing survives decimation (no dense/sparse mix).
        assert max(gaps) <= 2 * min(gaps)

    def test_rejects_tiny_cap(self):
        with pytest.raises(ValueError):
            TimeSeries(max_samples=2)


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")

    def test_name_kind_collision_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            r.histogram("x")

    def test_to_dict_sorted_and_serialisable(self):
        r = MetricsRegistry()
        r.counter("b").inc()
        r.counter("a").inc(2)
        r.histogram("c").record(3)
        r.series("d").append(1, 1.0)
        exported = r.to_dict()
        assert list(exported) == ["a", "b", "c", "d"]
        json.dumps(exported)
