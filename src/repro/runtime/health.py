"""Process-global fault/recovery counters on the obs registry.

Every hardening seam in the stack — corrupt-artifact quarantine, cache
write degradation, crash-retry backoff, watchdog kill escalation,
sidecar rebuilds, checkpoint resumes — counts what it survived here,
so "the run finished" and "the run finished *after recovering from
three torn artifacts*" are distinguishable.  Tests assert on the
snapshot; the chaos suite's runlog artifact includes it.

One registry per process (worker processes keep their own; their
counts describe their own recoveries).  Counter names are stable API:
``fault.*`` counts faults observed, ``recovery.*`` counts successful
recoveries.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, MetricsRegistry

#: the process-global health registry
HEALTH = MetricsRegistry()


def health_counter(name: str) -> Counter:
    """The named fault/recovery counter (created on first use)."""
    return HEALTH.counter(name)


def health_snapshot() -> "dict[str, int]":
    """Flat ``{counter name: value}`` view of every health counter."""
    return {
        name: instrument["value"]
        for name, instrument in HEALTH.to_dict().items()
        if instrument.get("type") == "counter"
    }


def reset_health() -> None:
    """Zero every counter (test isolation only)."""
    HEALTH.clear()
