"""Wall-clock span tracing across the service stack.

Where :mod:`repro.obs.tracer` answers "where did the *cycles* go inside
one simulation", this module answers "where did the *seconds* go between
a client pressing submit and the result coming back" — the same
latency-attribution question the paper's switch-model taxonomy asks at
the instruction level, lifted to the service level.

A :class:`Span` is one named stage of work — ``trace_id`` / ``span_id``
/ ``parent_id`` identity, wall-clock start/end, a status and free-form
attributes.  Spans of one request share a trace id, which is carried
across layers (client → HTTP → scheduler → engine → worker process) as
a W3C ``traceparent`` string, so a served job yields one tree::

    client-submit
      http                      POST /v1/jobs handling
        admit                   admission-control decision
        queue-wait              admitted -> picked up by the worker thread
        execute                 the engine.run_many call
          cache-lookup          memo + disk-cache probe (per spec)
          dispatch              pool submit -> payload collected
            simulate            worker-side execution (crosses the
              build               ProcessPoolExecutor boundary)
              jit-compile         compiled-backend codegen (accumulated)
              run                 the simulation proper
          deserialize           SimulationResult.from_dict
        serialize               result payloads built
        journal                 finish record flushed

As with :class:`~repro.obs.tracer.Tracer`, ``None`` is off: with no
recorder every probe site pays one local load plus one ``is not None``
check, and emitted byte streams stay identical.

Finished spans export three ways:

* **JSONL** — one record per line via :class:`~repro.obs.runlog.
  RunLogWriter` (crash-tolerant; :func:`read_spans_jsonl` skips torn
  tails);
* **Chrome trace_event** — :func:`spans_chrome_trace` renders wall-clock
  tracks that :func:`merge_chrome_traces` can splice into a
  simulated-cycle trace from :mod:`repro.obs.chrome`, one Perfetto view
  over both clocks;
* **metrics** — every finished span's duration lands in the
  ``serve.stage_seconds`` histogram family (one labelled series per
  stage), scraped at ``/metrics`` and summarised by ``repro-trace
  spans``.
"""

from __future__ import annotations

import collections
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.runlog import RunLogWriter, read_runlog

#: Histogram family every finished span's duration is observed into
#: (one labelled series per ``stage`` = span name).
STAGE_HISTOGRAM = "serve.stage_seconds"

#: Bucket floor for the stage histograms: 2**-20 s ≈ 1µs resolution.
STAGE_FLOOR = -20

#: Help text the labelled family is registered with.
STAGE_HELP = "Wall-clock seconds spent per pipeline stage"


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 lowercase hex chars)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (16 lowercase hex chars)."""
    return os.urandom(8).hex()


class SpanContext(NamedTuple):
    """What crosses a boundary: the trace and the parent span within it."""

    trace_id: str
    span_id: str

    def to_traceparent(self) -> str:
        """The W3C ``traceparent`` header value (version 00, sampled)."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, header) -> Optional["SpanContext"]:
        """Parse a ``traceparent`` value; ``None`` for anything that is
        not a well-formed version-00 header (never raises — a bad header
        from a foreign client must not fail the request)."""
        if not isinstance(header, str):
            return None
        parts = header.strip().split("-")
        if len(parts) != 4:
            return None
        version, trace_id, span_id, _flags = parts
        if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16:
            return None
        try:
            int(trace_id, 16), int(span_id, 16)
        except ValueError:
            return None
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id, span_id)


class Span:
    """One named stage of wall-clock work within a trace."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "start", "end",
        "status", "attributes",
    )

    def __init__(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        start: Optional[float] = None,
        attributes: Optional[Dict] = None,
    ):
        self.name = name
        self.trace_id = trace_id or new_trace_id()
        self.span_id = span_id or new_span_id()
        self.parent_id = parent_id
        self.start = time.time() if start is None else start
        self.end: Optional[float] = None
        self.status = "ok"
        self.attributes: Optional[Dict] = dict(attributes) if attributes else None

    @property
    def context(self) -> SpanContext:
        """The context a child span (or a wire header) parents under."""
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while unfinished)."""
        return max(0.0, self.end - self.start) if self.end is not None else 0.0

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes; returns the span."""
        if self.attributes is None:
            self.attributes = {}
        self.attributes.update(attributes)
        return self

    def finish(self, status: str = "ok") -> "Span":
        """Stamp the end time (idempotent — the first finish wins)."""
        if self.end is None:
            self.end = time.time()
            self.status = status
        return self

    def to_dict(self) -> Dict:
        record = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }
        if self.attributes:
            record["attrs"] = dict(self.attributes)
        return record

    @classmethod
    def from_dict(cls, record: Dict) -> "Span":
        span = cls(
            record["name"],
            trace_id=record["trace"],
            parent_id=record.get("parent"),
            span_id=record["span"],
            start=float(record["start"]),
            attributes=record.get("attrs"),
        )
        end = record.get("end")
        span.end = float(end) if end is not None else None
        span.status = record.get("status", "ok")
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name} {self.trace_id[:8]}/{self.span_id[:8]} "
            f"{self.duration * 1e3:.2f}ms {self.status}>"
        )


class SpanRecorder:
    """Collects finished spans; optionally mirrors them to a JSONL log
    and a :class:`MetricsRegistry` stage-latency histogram family.

    Thread-safe: request handlers, the scheduler worker thread and the
    engine all record into one instance.

    :param capacity: finished spans retained in memory (oldest dropped
        first, counted in :attr:`dropped`); ``None`` keeps everything.
    :param metrics: registry receiving ``serve.stage_seconds{stage=...}``
        observations per finished span (``None`` = no metrics fold).
    :param log: path of a JSONL span log appended to as spans finish
        (``None`` = in-memory only).
    """

    def __init__(
        self,
        capacity: Optional[int] = 100_000,
        metrics: Optional[MetricsRegistry] = None,
        log=None,
    ):
        self._spans: collections.deque = collections.deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.metrics = metrics
        self.log_path = log
        self._writer: Optional[RunLogWriter] = None
        self.dropped = 0
        self.recorded = 0

    # -- span lifecycle --------------------------------------------------------

    def start(
        self,
        name: str,
        parent=None,
        start: Optional[float] = None,
        attributes: Optional[Dict] = None,
    ) -> Span:
        """Open a span.  *parent* may be a :class:`Span`, a
        :class:`SpanContext`, a ``(trace_id, span_id)`` tuple, or
        ``None`` (a new root trace).  *start* backdates the span (used
        for queue-wait, whose start is the admission instant)."""
        trace_id = parent_id = None
        if parent is not None:
            if isinstance(parent, Span):
                trace_id, parent_id = parent.trace_id, parent.span_id
            else:  # SpanContext or a plain (trace_id, span_id) tuple
                trace_id, parent_id = parent[0], parent[1]
        return Span(
            name, trace_id=trace_id, parent_id=parent_id, start=start,
            attributes=attributes,
        )

    def finish(self, span: Span, status: str = "ok") -> Span:
        """Stamp the span's end and record it."""
        span.finish(status)
        self.record(span)
        return span

    @contextmanager
    def span(self, name: str, parent=None, attributes: Optional[Dict] = None):
        """``with recorder.span("stage", parent=ctx) as s:`` — finishes
        with status ``error`` when the body raises."""
        span = self.start(name, parent=parent, attributes=attributes)
        try:
            yield span
        except BaseException:
            self.finish(span, status="error")
            raise
        self.finish(span)

    # -- sinks -----------------------------------------------------------------

    def record(self, span: Span) -> None:
        """Fold one finished span into memory, metrics and the log."""
        with self._lock:
            if (
                self._spans.maxlen is not None
                and len(self._spans) == self._spans.maxlen
            ):
                self.dropped += 1
            self._spans.append(span)
            self.recorded += 1
            if self.metrics is not None and span.end is not None:
                self.metrics.histogram(
                    STAGE_HISTOGRAM,
                    help=STAGE_HELP,
                    labels={"stage": span.name},
                    floor=STAGE_FLOOR,
                ).observe(span.duration)
            if self.log_path is not None:
                try:
                    if self._writer is None:
                        self._writer = RunLogWriter(self.log_path)
                    self._writer.append(span.to_dict())
                except OSError:  # pragma: no cover - disk full etc.
                    self.log_path = None

    def absorb(self, records: Iterable[Dict]) -> int:
        """Record span dictionaries produced elsewhere (worker processes
        return theirs inside the result payload); malformed records are
        skipped.  Returns the number absorbed."""
        count = 0
        for record in records:
            try:
                span = Span.from_dict(record)
            except (KeyError, TypeError, ValueError):
                continue
            self.record(span)
            count += 1
        return count

    # -- access ----------------------------------------------------------------

    def spans(self) -> List[Span]:
        """Retained finished spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def close(self) -> None:
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None


# -- JSONL ---------------------------------------------------------------------


def write_spans_jsonl(path, spans: Iterable[Span]) -> int:
    """Dump *spans* to *path*, one JSON record per line; returns the
    number written.  Inverse: :func:`read_spans_jsonl`."""
    import json

    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def read_spans_jsonl(path) -> List[Span]:
    """Load a span log.  Torn or malformed lines are skipped (a crashed
    writer leaves at most one torn line at the end), mirroring
    :func:`~repro.obs.runlog.read_runlog`."""
    spans: List[Span] = []
    for record in read_runlog(path):
        try:
            spans.append(Span.from_dict(record))
        except (KeyError, TypeError, ValueError):
            continue
    return spans


# -- Chrome export -------------------------------------------------------------

#: Trace-file process id of the wall-clock track — far above simulated
#: processors (0..N) and the memory side (1_000_000), so the service
#: tracks sort last in a merged Perfetto view.
WALL_CLOCK_PID = 2_000_000


def spans_chrome_events(
    spans: Iterable[Span], origin: Optional[float] = None
) -> List[Dict]:
    """Chrome ``trace_event`` entries for *spans*: one wall-clock track
    (process ``service (wall clock)``), one thread lane per trace, every
    span a complete (``"X"``) slice.  1µs of trace time = 1µs of wall
    clock, measured from *origin* (default: the earliest span start), so
    the entries coexist with the 1-cycle-=-1µs simulated tracks from
    :func:`repro.obs.chrome.chrome_trace` in one viewer session."""
    spans = [span for span in spans if span.end is not None]
    if not spans:
        return []
    if origin is None:
        origin = min(span.start for span in spans)
    lanes: Dict[str, int] = {}
    entries: List[Dict] = [
        {
            "name": "process_name", "ph": "M", "pid": WALL_CLOCK_PID,
            "args": {"name": "service (wall clock)"},
        },
        {
            "name": "process_sort_index", "ph": "M", "pid": WALL_CLOCK_PID,
            "args": {"sort_index": WALL_CLOCK_PID},
        },
    ]
    for span in sorted(spans, key=lambda s: s.start):
        lane = lanes.get(span.trace_id)
        if lane is None:
            lane = lanes[span.trace_id] = len(lanes)
            entries.append(
                {
                    "name": "thread_name", "ph": "M", "pid": WALL_CLOCK_PID,
                    "tid": lane,
                    "args": {"name": f"trace {span.trace_id[:8]}"},
                }
            )
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "status": span.status,
        }
        if span.attributes:
            args.update(span.attributes)
        entries.append(
            {
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "pid": WALL_CLOCK_PID,
                "tid": lane,
                "ts": max(0.0, (span.start - origin) * 1e6),
                "dur": span.duration * 1e6,
                "args": args,
            }
        )
    return entries


def spans_chrome_trace(spans: Iterable[Span]) -> Dict:
    """A complete Chrome trace document holding only the wall-clock
    span tracks (merge with a cycle trace via
    :func:`merge_chrome_traces`)."""
    spans = list(spans)
    return {
        "traceEvents": spans_chrome_events(spans),
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs.spans",
            "clock": "1us trace time = 1us wall clock",
            "spans": sum(1 for span in spans if span.end is not None),
        },
    }


def merge_chrome_traces(*documents: Dict) -> Dict:
    """Splice several Chrome trace documents into one: ``traceEvents``
    concatenated, ``otherData`` merged (later documents win on key
    clashes).  This is how the simulated-cycle tracks and the wall-clock
    span tracks land in a single Perfetto view."""
    events: List[Dict] = []
    other: Dict = {}
    for document in documents:
        events.extend(document.get("traceEvents", []))
        other.update(document.get("otherData", {}))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


# -- reports -------------------------------------------------------------------


def stage_histograms(spans: Iterable[Span]) -> "collections.OrderedDict":
    """Per-stage latency histograms (stage = span name, first-seen
    order) over the finished spans of a log."""
    from repro.obs.metrics import Histogram

    stages: "collections.OrderedDict[str, Histogram]" = collections.OrderedDict()
    for span in spans:
        if span.end is None:
            continue
        hist = stages.get(span.name)
        if hist is None:
            hist = stages[span.name] = Histogram(span.name, floor=STAGE_FLOOR)
        hist.observe(span.duration)
    return stages


def render_span_report(spans: List[Span]) -> str:
    """The ``repro-trace spans`` per-stage latency table: count, mean
    and p50/p95/p99 upper-bound quantiles (milliseconds) per stage."""
    stages = stage_histograms(spans)
    if not stages:
        return "(no finished spans)"
    traces = {span.trace_id for span in spans}
    errors = sum(1 for span in spans if span.status != "ok")
    width = max(max(len(name) for name in stages), len("stage"))
    lines = [
        f"{len(spans)} spans across {len(traces)} trace(s)"
        + (f", {errors} error(s)" if errors else ""),
        "",
        f"  {'stage':<{width}}  {'count':>7} {'mean ms':>9} "
        f"{'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9} {'max ms':>9}",
    ]
    for name, hist in stages.items():
        lines.append(
            f"  {name:<{width}}  {hist.count:>7,} {hist.mean * 1e3:>9.2f} "
            f"{hist.quantile(0.5) * 1e3:>9.2f} "
            f"{hist.quantile(0.95) * 1e3:>9.2f} "
            f"{hist.quantile(0.99) * 1e3:>9.2f} "
            f"{(hist.max or 0.0) * 1e3:>9.2f}"
        )
    return "\n".join(lines)


def render_span_tree(
    spans: List[Span], trace_id: Optional[str] = None
) -> str:
    """An indented per-trace tree of spans (durations in ms).  Spans
    whose parent is not in the log (e.g. the client kept its own
    recorder) root at their trace."""
    by_trace: Dict[str, List[Span]] = {}
    for span in spans:
        if trace_id is None or span.trace_id == trace_id:
            by_trace.setdefault(span.trace_id, []).append(span)
    if not by_trace:
        return "(no matching spans)"
    lines: List[str] = []
    for tid, members in by_trace.items():
        lines.append(f"trace {tid}")
        ids = {span.span_id for span in members}
        children: Dict[Optional[str], List[Span]] = {}
        for span in members:
            parent = span.parent_id if span.parent_id in ids else None
            children.setdefault(parent, []).append(span)

        def walk(parent: Optional[str], depth: int) -> None:
            for span in sorted(
                children.get(parent, []), key=lambda s: s.start
            ):
                flag = "" if span.status == "ok" else f" [{span.status}]"
                lines.append(
                    f"  {'  ' * depth}{span.name:<24} "
                    f"{span.duration * 1e3:>9.2f} ms{flag}"
                )
                walk(span.span_id, depth + 1)

        walk(None, 0)
    return "\n".join(lines)
