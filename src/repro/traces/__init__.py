"""Memory reference streams.

The paper's experiments consume *traces*: sequences of memory references
annotated with the dynamic instruction count.  This package provides

* the trace model (:mod:`repro.traces.trace`),
* the synthetic working-set behaviours of paper section 3.3
  (:mod:`repro.traces.synthetic`),
* calibrated SPEC CPU2000-like workload models (:mod:`repro.traces.spec_models`),
* L1-cache front ends that turn a raw trace into the L1-miss stream the
  migration controller observes (:mod:`repro.traces.filters`).
"""

from repro.traces.trace import (
    Access,
    AccessKind,
    LineStream,
    TraceSource,
    TraceStats,
    line_address,
    measure_trace,
)
from repro.traces.synthetic import (
    Circular,
    HalfRandom,
    InterleavedStreams,
    PermutationCycle,
    PhaseAlternating,
    SequenceBehavior,
    Stride,
    UniformRandom,
    behavior_trace,
)
from repro.traces.filters import L1FilterConfig, L1Filter, FilteredReference
from repro.traces.spec_models import (
    SpecModel,
    SpecModelConfig,
    spec_model,
    spec_model_names,
)

__all__ = [
    "Access",
    "AccessKind",
    "Circular",
    "FilteredReference",
    "HalfRandom",
    "InterleavedStreams",
    "L1Filter",
    "L1FilterConfig",
    "LineStream",
    "PermutationCycle",
    "PhaseAlternating",
    "SequenceBehavior",
    "SpecModel",
    "SpecModelConfig",
    "Stride",
    "TraceSource",
    "TraceStats",
    "UniformRandom",
    "behavior_trace",
    "line_address",
    "measure_trace",
    "spec_model",
    "spec_model_names",
]
