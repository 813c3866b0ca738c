"""repro.obs — simulator telemetry.

The paper's argument is about *dynamic* behaviour — migration bursts,
transition-filter hysteresis, per-core cache occupancy — which
end-of-run counters average away.  This package adds the time axis:

* :mod:`repro.obs.metrics` — zero-dependency counters, HDR-style
  histograms and bounded rolling time-series;
* :mod:`repro.obs.events` — the structured simulation event stream
  (migration start/commit, filter flips, R-window rollovers, L2
  eviction storms, update-bus saturation, controller transitions);
* :mod:`repro.obs.probe` — :class:`~repro.obs.probe.SimProbe`, the
  object instrumented hot paths report to.  Probes are **nil by
  default**: every hook in the simulator is guarded by one
  ``if probe is not None`` attribute check, so uninstrumented runs pay
  effectively nothing (``benchmarks/obs_overhead.py`` verifies);
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (load a run in
  Perfetto and watch execution hop between cores), JSONL, and terminal
  summaries;
* :mod:`repro.obs.trace_context` — cross-process span correlation:
  one trace id per sweep, deterministic per-job spans propagated into
  worker processes, kernel phase spans;
* :mod:`repro.obs.aggregate` — stitches one ``--obs`` directory (the
  per-job report artifacts, the scheduler's
  :class:`~repro.runtime.events.JobEvent` run log ``runtime.jsonl``,
  and the phase spans) into one merged Perfetto trace plus a
  machine-readable sweep summary (per-stage latency histograms,
  span-linkage check).

Command line: ``python -m repro.obs {summarize,export} <dir>``;
producer side: ``python -m repro.experiments.run_all --obs <dir>``.
"""

from repro.obs.aggregate import (
    SweepArtifacts,
    collect_artifacts,
    sweep_summary,
    write_aggregate,
)
from repro.obs.events import EventLog, SimEvent
from repro.obs.export import (
    chrome_trace,
    save_report,
    summarize_reports,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.probe import ObsReport, SimProbe
from repro.obs.trace_context import TraceContext, mint_root, span_for_job

__all__ = [
    "Counter",
    "EventLog",
    "Histogram",
    "MetricsRegistry",
    "ObsReport",
    "SimEvent",
    "SimProbe",
    "SweepArtifacts",
    "TimeSeries",
    "TraceContext",
    "chrome_trace",
    "collect_artifacts",
    "mint_root",
    "save_report",
    "span_for_job",
    "summarize_reports",
    "sweep_summary",
    "write_aggregate",
]
