"""``repro.obs`` — observability: tracing, metrics, run logs.

Three independent layers, cheapest first:

* **engine telemetry** (always on when a result cache is configured):
  one JSONL line per run under the cache directory — wall time, cache
  source, worker id, peak RSS (:mod:`repro.obs.runlog`);
* **metrics** (:class:`MetricsRegistry`): counters + histograms, usable
  on their own or derived from a finished run's
  :meth:`~repro.machine.stats.SimStats.to_metrics`;
* **cycle-level tracing** (:class:`RingTracer`): typed, cycle-stamped
  events from every probe point in the machine, exportable as a Chrome
  ``trace_event`` file for Perfetto (:mod:`repro.obs.chrome`), a JSONL
  dump, an ASCII timeline (:mod:`repro.tools.timeline`) or a metrics
  report — four views of one event stream.

Quickstart::

    from repro import simulate
    from repro.obs import RingTracer, write_chrome_trace

    tracer = RingTracer()
    result = simulate("sieve", model="explicit-switch", processors=2,
                      level=4, scale="tiny", tracer=tracer)
    write_chrome_trace("trace.json", tracer.events(), tracer.dropped)

With no tracer (the default) the simulator's hot paths pay a single
attribute check.
"""

from repro.obs.events import (
    EventKind,
    RingBuffer,
    TraceEvent,
    bursts,
    event_to_record,
    read_events_jsonl,
    record_to_event,
    write_events_jsonl,
)
from repro.obs.tracer import RingTracer, Tracer
from repro.obs.chrome import chrome_trace, validate_chrome_trace, write_chrome_trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_from_events,
    prometheus_name,
)
from repro.obs.runlog import (
    RunLogWriter,
    read_runlog,
    render_runlog_report,
    summarize_runlog,
)
from repro.obs.spans import (
    Span,
    SpanContext,
    SpanRecorder,
    merge_chrome_traces,
    read_spans_jsonl,
    render_span_report,
    render_span_tree,
    spans_chrome_trace,
    write_spans_jsonl,
)

__all__ = [
    "EventKind",
    "TraceEvent",
    "RingBuffer",
    "bursts",
    "event_to_record",
    "record_to_event",
    "write_events_jsonl",
    "read_events_jsonl",
    "Tracer",
    "RingTracer",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_from_events",
    "prometheus_name",
    "RunLogWriter",
    "read_runlog",
    "summarize_runlog",
    "render_runlog_report",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "read_spans_jsonl",
    "write_spans_jsonl",
    "render_span_report",
    "render_span_tree",
    "spans_chrome_trace",
    "merge_chrome_traces",
]
