"""Zero-dependency metrics primitives for simulator telemetry.

Three instrument kinds, all allocation-light and JSON-exportable:

* :class:`Counter` — monotonically increasing event count;
* :class:`Histogram` — HDR-style log2 buckets with linear sub-buckets,
  so value distributions (migration gaps, storm sizes) keep bounded
  memory and ~6 % relative resolution regardless of range;
* :class:`TimeSeries` — rolling ``(t, value)`` samples with a hard
  sample cap; when full, every other sample is dropped and the sampling
  stride doubles, so an arbitrarily long run keeps an evenly spaced
  sketch instead of growing without bound.

A :class:`MetricsRegistry` names and owns instruments; everything
serialises through :meth:`MetricsRegistry.to_dict`.  Each probe owns one
registry for its run; the one process-wide registry is
:data:`repro.runtime.health.HEALTH`, where the fault and recovery seams
count.
"""

from __future__ import annotations


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> "dict[str, object]":
        return {"type": "counter", "value": self.value}


class Histogram:
    """Log2 buckets with ``sub_buckets`` linear slots per octave.

    Bucket index of value ``v >= 1`` with ``s`` sub-buckets:
    ``octave(v) * s + sub``, where ``octave = v.bit_length() - 1`` and
    ``sub`` linearly divides the octave.  Values below 1 land in bucket
    0.  This is the classic HDR-histogram layout: relative error is
    bounded by ``1/s`` at any magnitude.
    """

    __slots__ = ("sub_buckets", "buckets", "count", "total", "min", "max")

    def __init__(self, sub_buckets: int = 16) -> None:
        if sub_buckets < 1:
            raise ValueError(f"sub_buckets must be >= 1, got {sub_buckets}")
        self.sub_buckets = sub_buckets
        self.buckets: "dict[int, int]" = {}
        self.count = 0
        self.total = 0
        self.min: "int | None" = None
        self.max: "int | None" = None

    def _index(self, value: int) -> int:
        if value < 1:
            return 0
        octave = value.bit_length() - 1
        if octave == 0:
            return 0
        sub = ((value - (1 << octave)) * self.sub_buckets) >> octave
        return octave * self.sub_buckets + sub

    def _bucket_floor(self, index: int) -> int:
        if index == 0:
            return 0  # bucket 0 also holds sub-1 values
        octave, sub = divmod(index, self.sub_buckets)
        return (1 << octave) + ((sub << octave) // self.sub_buckets)

    def record(self, value: int) -> None:
        value = int(value)
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (p in [0, 100]) from buckets.

        Edge contract: an empty histogram reports 0.0 for every
        quantile; with one sample every quantile is *exactly* that
        sample; p=0 is the exact minimum and p=100 the exact maximum —
        the bucket-floor approximation only applies strictly inside
        (0, 100) with two or more samples.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        if self.count == 1 or p == 0.0:
            return float(self.min)
        if p == 100.0:
            return float(self.max)
        rank = max(1, round(p / 100.0 * self.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return float(self._bucket_floor(index))
        return float(self.max or 0)

    def to_dict(self) -> "dict[str, object]":
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
            "sub_buckets": self.sub_buckets,
        }


class TimeSeries:
    """Rolling ``(t, value)`` samples with bounded memory.

    ``append`` keeps at most ``max_samples`` points; on overflow it
    drops every other retained point and doubles ``stride`` so only
    every ``stride``-th append is stored from then on — a run of any
    length yields an evenly spaced sketch of at most ``max_samples``
    points.
    """

    __slots__ = ("max_samples", "samples", "stride", "_skipped")

    def __init__(self, max_samples: int = 2048) -> None:
        if max_samples < 4:
            raise ValueError(f"max_samples must be >= 4, got {max_samples}")
        self.max_samples = max_samples
        self.samples: "list[tuple[int, float]]" = []
        self.stride = 1
        self._skipped = 0

    def append(self, t: int, value: float) -> None:
        self._skipped += 1
        if self._skipped < self.stride:
            return
        self._skipped = 0
        self.samples.append((t, value))
        if len(self.samples) >= self.max_samples:
            self.samples = self.samples[::2]
            self.stride *= 2

    def to_dict(self) -> "dict[str, object]":
        return {
            "type": "series",
            "stride": self.stride,
            "samples": [[t, v] for t, v in self.samples],
        }


class MetricsRegistry:
    """Named instruments for one simulated run."""

    def __init__(self) -> None:
        self._instruments: "dict[str, object]" = {}

    def _get(self, name: str, factory, kind):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def histogram(self, name: str, sub_buckets: int = 16) -> Histogram:
        return self._get(name, lambda: Histogram(sub_buckets), Histogram)

    def series(self, name: str, max_samples: int = 2048) -> TimeSeries:
        return self._get(name, lambda: TimeSeries(max_samples), TimeSeries)

    def clear(self) -> None:
        """Drop every instrument (long-lived registries, test resets)."""
        self._instruments.clear()

    def to_dict(self) -> "dict[str, object]":
        return {
            name: instrument.to_dict()
            for name, instrument in sorted(self._instruments.items())
        }
