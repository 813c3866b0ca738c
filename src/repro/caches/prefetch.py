"""L2 prefetchers (paper section 6, "connection with cache prefetching").

The paper's conclusion is careful about prefetching: much of the
observed splittability comes from circular behaviours "on which
prefetching is likely to succeed", but "there is more to splittability
than predictability (e.g., HalfRandom)" — a working set can be
splittable while its reference stream is unpredictable.  To study that
interaction (see ``benchmarks/bench_prefetch_interaction.py``), this
module provides the two classic sequential prefetchers:

* :class:`NextLinePrefetcher` — on a miss to line ``x``, prefetch
  ``x+1 .. x+degree``;
* :class:`StridePrefetcher` — per-PC-less global stride detection:
  confirms a stride over consecutive misses and prefetches ahead.

Prefetches install lines into the target cache via ``fill`` (no demand
access counted); accuracy/coverage counters let experiments report the
standard prefetching metrics.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PrefetchStats:
    issued: int = 0
    useful: int = 0  #: prefetched lines later hit by a demand access

    @property
    def accuracy(self) -> float:
        if self.issued == 0:
            return 0.0
        return self.useful / self.issued


class NextLinePrefetcher:
    """Prefetch the next ``degree`` sequential lines on each miss."""

    def __init__(self, cache, degree: int = 2) -> None:
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        self.cache = cache
        self.degree = degree
        self.stats = PrefetchStats()
        self._outstanding: "set[int]" = set()

    def demand_access(self, line: int, hit: bool) -> None:
        """Notify the prefetcher of a demand access outcome."""
        if line in self._outstanding:
            self._outstanding.discard(line)
            if hit:
                self.stats.useful += 1
        if not hit:
            for ahead in range(1, self.degree + 1):
                self._prefetch(line + ahead)

    def _prefetch(self, line: int) -> None:
        if line in self.cache:
            return
        self.cache.fill(line)
        self.stats.issued += 1
        self._outstanding.add(line)


class StridePrefetcher:
    """Global stride detector with 2-miss confirmation.

    Tracks the delta between consecutive demand misses; once the same
    delta repeats, prefetches ``degree`` lines ahead along it.  Catches
    circular/strided sweeps, blind to pointer chasing and HalfRandom —
    exactly the predictability boundary the paper's section 6 draws.
    """

    def __init__(self, cache, degree: int = 2) -> None:
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        self.cache = cache
        self.degree = degree
        self.stats = PrefetchStats()
        self._outstanding: "set[int]" = set()
        self._last_miss: "int | None" = None
        self._stride: "int | None" = None
        self._confirmed = False

    def demand_access(self, line: int, hit: bool) -> None:
        if line in self._outstanding:
            self._outstanding.discard(line)
            if hit:
                self.stats.useful += 1
                # Streaming: a hit on a prefetched line keeps the
                # stream alive, pulling one more line ahead (without
                # this, prefetch-on-miss-only oscillates and covers
                # only 1/(degree+1) of a sequential sweep).
                if self._confirmed and self._stride:
                    self._prefetch(line + self.degree * self._stride)
                return
        if hit:
            return
        if self._last_miss is not None:
            delta = line - self._last_miss
            if delta != 0:
                self._confirmed = delta == self._stride
                self._stride = delta
        self._last_miss = line
        if self._confirmed and self._stride:
            for ahead in range(1, self.degree + 1):
                self._prefetch(line + ahead * self._stride)

    def _prefetch(self, line: int) -> None:
        if line < 0 or line in self.cache:
            return
        self.cache.fill(line)
        self.stats.issued += 1
        self._outstanding.add(line)
