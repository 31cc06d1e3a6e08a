"""``repro.obs`` — the structured observability subsystem.

Three pieces, all dependency-free leaves of the package graph:

* :mod:`repro.obs.trace` — the span tracer: nested,
  zero-alloc-when-disabled spans stamped with virtual *and* wall time,
  threaded through the scheduler service, fleet, coherence engine and
  simulator core.
* :mod:`repro.obs.counters` — the counter/gauge registry that absorbs
  the per-layer ad-hoc tallies behind one namespaced API
  (``engine.steps``, ``coherence.htod_bytes``, ``serve.capture_hits``…),
  surfaced via ``Session.metrics()`` and the serve-bench JSON summary.
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON and flat JSONL
  exporters plus the schema validator CI runs
  (``python -m repro.obs.export trace.json``).
"""

from repro.obs.counters import Counter, CounterRegistry
from repro.obs.export import (
    build_chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.trace import (
    NULL_TRACER,
    Span,
    TraceEvent,
    Tracer,
    current_tracer,
    set_default_tracer,
    use_tracer,
)

__all__ = [
    "Counter",
    "CounterRegistry",
    "NULL_TRACER",
    "Span",
    "TraceEvent",
    "Tracer",
    "build_chrome_trace",
    "current_tracer",
    "set_default_tracer",
    "use_tracer",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
    "write_jsonl",
]
