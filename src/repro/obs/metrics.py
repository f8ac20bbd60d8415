"""Counters and histograms: the aggregate view of observability.

A :class:`MetricsRegistry` is a flat, named collection of
:class:`Counter` and :class:`Histogram` instruments.  It is usable
stand-alone (instrument any code, render a report, serialize to JSON)
and has two built-in producers:

* :func:`metrics_from_events` derives latency histograms and event
  counters from a tracer's event stream;
* :meth:`repro.machine.stats.SimStats.to_metrics` exports a finished
  run's statistics, so the same report machinery works with tracing
  completely disabled.

Histograms bucket by powers of two (1, 2, 4, ... upper bounds), which
suits the quantities here — run lengths and memory latencies spread
over orders of magnitude — and keeps ``observe`` cheap
(``bit_length``, no search).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from repro.obs.events import EventKind, TraceEvent


class Counter:
    """A monotonically increasing named count, optionally carrying a set
    of Prometheus-style labels (one Counter per distinct label set)."""

    __slots__ = ("name", "value", "help", "labels")

    def __init__(
        self,
        name: str,
        help: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
    ):
        self.name = name
        self.value = 0
        self.help = help
        self.labels = dict(labels) if labels else None

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> Dict:
        payload = {"type": "counter", "value": self.value}
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {labeled_key(self.name, self.labels)}={self.value}>"


class Histogram:
    """Power-of-two-bucketed distribution of non-negative observations.

    Bucket *b* counts observations with ``2**(b-1) < value <= 2**b``;
    exact count/sum/min/max are kept alongside, so means are exact and
    only quantiles are approximate (upper bucket bound — a conservative
    estimate).

    *floor* is the smallest bucket exponent: with the default ``0`` the
    cheapest path applies and every value <= 1 lands in bucket 0 (right
    for integral quantities — cycle counts, run lengths).  A negative
    floor extends the buckets into fractional powers of two (``2**-20``
    ≈ 1µs of seconds), which is what the wall-clock span latency
    histograms use; values at or below ``2**floor`` share the floor
    bucket.

    Like :class:`Counter`, a histogram may carry a Prometheus-style
    label set (one Histogram per distinct label set); labelled series of
    one family share the name and differ only in *labels*.
    """

    __slots__ = (
        "name", "buckets", "count", "total", "min", "max", "help",
        "labels", "floor",
    )

    def __init__(
        self,
        name: str,
        help: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
        floor: int = 0,
    ):
        if floor > 0:
            raise ValueError(f"histogram {name!r}: floor must be <= 0")
        self.name = name
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.help = help
        self.labels = dict(labels) if labels else None
        self.floor = floor

    def _bucket_for(self, value) -> int:
        if value > 1:
            return (math.ceil(value) - 1).bit_length()
        if self.floor == 0 or value <= 0:
            return self.floor
        # 0 < value <= 1 with fractional buckets: frexp gives the exact
        # power-of-two bound without the log2 rounding hazards.
        mantissa, exponent = math.frexp(value)
        bucket = exponent - 1 if mantissa == 0.5 else exponent
        return bucket if bucket > self.floor else self.floor

    def observe(self, value) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name!r}: negative value {value}")
        bucket = self._bucket_for(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the *q*-quantile from the bucket
        boundaries: the smallest bucket bound below which at least
        ``q * count`` observations fall, clamped by the exact observed
        maximum (so ``quantile(1.0) == max``).  ``0.0`` when empty."""
        if not self.count:
            return 0.0
        threshold = q * self.count
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= threshold:
                return min(float(2 ** bucket), float(self.max))
        return float(self.max)

    def to_dict(self) -> Dict:
        payload = {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {str(2 ** b): n for b, n in sorted(self.buckets.items())},
        }
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.1f}>"


class Gauge:
    """A named value that can go up and down (uptime, build info)."""

    __slots__ = ("name", "value", "help", "labels")

    def __init__(
        self,
        name: str,
        help: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
    ):
        self.name = name
        self.value = 0.0
        self.help = help
        self.labels = dict(labels) if labels else None

    def set(self, value) -> None:
        self.value = value

    def to_dict(self) -> Dict:
        payload = {"type": "gauge", "value": self.value}
        if self.labels:
            payload["labels"] = dict(self.labels)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {labeled_key(self.name, self.labels)}={self.value}>"


class MetricsRegistry:
    """Named collection of instruments with one creation point per name."""

    def __init__(self):
        self._instruments: Dict[str, object] = {}

    def counter(
        self,
        name: str,
        help: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> Counter:
        """One counter per (name, label set) — labelled series of one
        family share the name and differ only in *labels*."""
        key = labeled_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = Counter(name, help, labels)
        elif not isinstance(instrument, Counter):
            raise TypeError(f"{key!r} is already a {type(instrument).__name__}")
        return instrument

    def histogram(
        self,
        name: str,
        help: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
        floor: int = 0,
    ) -> Histogram:
        key = labeled_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = Histogram(
                name, help, labels, floor
            )
        elif not isinstance(instrument, Histogram):
            raise TypeError(f"{key!r} is already a {type(instrument).__name__}")
        return instrument

    def gauge(
        self,
        name: str,
        help: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> Gauge:
        key = labeled_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = Gauge(name, help, labels)
        elif not isinstance(instrument, Gauge):
            raise TypeError(f"{key!r} is already a {type(instrument).__name__}")
        return instrument

    def __iter__(self):
        return iter(sorted(self._instruments.items()))

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def to_dict(self) -> Dict:
        return {name: instrument.to_dict() for name, instrument in self}

    def render(self) -> str:
        """Aligned text report (the ``repro-trace`` metrics view)."""
        lines: List[str] = []
        counters = [
            (name, inst) for name, inst in self if isinstance(inst, Counter)
        ]
        gauges = [
            (name, inst) for name, inst in self if isinstance(inst, Gauge)
        ]
        histograms = [
            (name, inst) for name, inst in self if isinstance(inst, Histogram)
        ]
        if counters:
            width = max(len(name) for name, _ in counters)
            lines.append("counters:")
            for name, counter in counters:
                lines.append(f"  {name:<{width}}  {counter.value:>12,}")
        if gauges:
            width = max(len(name) for name, _ in gauges)
            lines.append("gauges:" if not lines else "\ngauges:")
            for name, gauge in gauges:
                lines.append(f"  {name:<{width}}  {gauge.value:>12,}")
        if histograms:
            width = max(len(name) for name, _ in histograms)
            lines.append("histograms:" if not lines else "\nhistograms:")
            header = (
                f"  {'name':<{width}}  {'count':>10} {'mean':>10} "
                f"{'p50':>8} {'p95':>8} {'max':>10}"
            )
            lines.append(header)
            for name, hist in histograms:
                lines.append(
                    f"  {name:<{width}}  {hist.count:>10,} {hist.mean:>10.1f} "
                    f"{hist.quantile(0.5):>8.0f} {hist.quantile(0.95):>8.0f} "
                    f"{(hist.max if hist.max is not None else 0):>10,.0f}"
                )
        return "\n".join(lines) if lines else "(no metrics)"

    def to_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every instrument.

        Counters render as ``<name>_total``; histograms render as native
        Prometheus histograms with cumulative power-of-two ``le`` buckets
        plus ``_sum``/``_count``.  Instrument names are sanitized to the
        Prometheus grammar (``.`` and other invalid characters become
        ``_``), ``# HELP`` lines are emitted for instruments created with
        help text, and output order follows the registry's sorted
        iteration — stable across runs, so scrapes diff cleanly.
        """
        lines: List[str] = []
        emitted_families = set()

        def family_header(name: str, kind: str, help_text) -> None:
            # TYPE/HELP belong to the family: emit once even when many
            # labelled series share the name.
            if name in emitted_families:
                return
            emitted_families.add(name)
            if help_text:
                lines.append(f"# HELP {name} {escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")

        for _name, instrument in self:
            rendered_labels = _render_labels(instrument.labels)
            if isinstance(instrument, Counter):
                name = prometheus_name(instrument.name)
                if not name.endswith("_total"):
                    name += "_total"
                family_header(name, "counter", instrument.help)
                label_part = "{" + rendered_labels + "}" if rendered_labels else ""
                lines.append(
                    f"{name}{label_part} {_format_value(instrument.value)}"
                )
            elif isinstance(instrument, Gauge):
                name = prometheus_name(instrument.name)
                family_header(name, "gauge", instrument.help)
                label_part = "{" + rendered_labels + "}" if rendered_labels else ""
                lines.append(
                    f"{name}{label_part} {_format_value(instrument.value)}"
                )
            else:
                name = prometheus_name(instrument.name)
                family_header(name, "histogram", instrument.help)
                prefix = rendered_labels + "," if rendered_labels else ""
                label_part = "{" + rendered_labels + "}" if rendered_labels else ""
                cumulative = 0
                for bucket in sorted(instrument.buckets):
                    cumulative += instrument.buckets[bucket]
                    bound = escape_label_value(str(2 ** bucket))
                    lines.append(
                        f'{name}_bucket{{{prefix}le="{bound}"}} {cumulative}'
                    )
                lines.append(
                    f'{name}_bucket{{{prefix}le="+Inf"}} {instrument.count}'
                )
                lines.append(
                    f"{name}_sum{label_part} {_format_value(instrument.total)}"
                )
                lines.append(f"{name}_count{label_part} {instrument.count}")
        return "\n".join(lines) + "\n" if lines else ""


def _render_labels(labels: Optional[Dict[str, str]]) -> str:
    """Prometheus label pairs (``k="v",...``) sorted by key, or ``""``."""
    if not labels:
        return ""
    return ",".join(
        f'{prometheus_name(key)}="{escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )


def labeled_key(name: str, labels: Optional[Dict[str, str]] = None) -> str:
    """Registry key of a (possibly labelled) series:
    ``name{k="v",...}`` with labels sorted, or just ``name``."""
    if not labels:
        return name
    rendered = ",".join(
        f'{key}="{escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return f"{name}{{{rendered}}}"


def prometheus_name(name: str) -> str:
    """*name* mapped onto the Prometheus metric-name grammar
    (``[a-zA-Z_:][a-zA-Z0-9_:]*``): invalid characters become ``_`` and
    a leading digit gains a ``_`` prefix."""
    sanitized = "".join(
        ch if ch.isascii() and (ch.isalnum() or ch in "_:") else "_"
        for ch in name
    )
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` string (backslash and newline, per the
    exposition-format spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(value: str) -> str:
    """Escape a label value (backslash, double quote, newline)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value) -> str:
    """Render a sample value: integers stay integral, floats use repr
    (shortest round-trippable form)."""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


#: (event kind -> counter name) for the simple tallies.
_EVENT_COUNTERS = {
    EventKind.INSTR: "instr",
    EventKind.SWITCH_TAKEN: "switch.taken",
    EventKind.SWITCH_SKIPPED: "switch.skipped",
    EventKind.SWITCH_FORCED: "switch.forced",
    EventKind.CACHE_HIT: "cache.hit",
    EventKind.CACHE_MISS: "cache.miss",
    EventKind.CACHE_MERGE: "cache.merge",
    EventKind.CACHE_EVICT: "cache.evict",
    EventKind.INVALIDATE: "invalidate",
    EventKind.FAA_COMBINE: "faa.combine",
    EventKind.THREAD_HALT: "thread.halt",
    EventKind.MEM_NACK: "mem.nack",
    EventKind.MEM_RETRY: "mem.retry",
    EventKind.FAA_REPLAY: "faa.replay",
    EventKind.COMPONENT_DEGRADE: "component.degrade",
    EventKind.COMPONENT_FAIL: "component.fail",
    EventKind.COMPONENT_REPAIR: "component.repair",
}


def metrics_from_events(
    events: Iterable[TraceEvent], registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Derive the standard metrics view of a trace.

    Produces one counter per event kind, per-message-kind issue counters
    (``mem.issue.<kind>``), a latency histogram per message kind
    (``mem.latency.<kind>``) and a burst-length histogram.
    """
    registry = registry if registry is not None else MetricsRegistry()
    for event in events:
        kind = event.kind
        name = _EVENT_COUNTERS.get(kind)
        if name is not None:
            registry.counter(name).inc()
        elif kind is EventKind.MEM_ISSUE:
            _txn, msg, _addr, latency = event.data
            registry.counter(f"mem.issue.{msg}").inc()
            registry.histogram(f"mem.latency.{msg}").observe(latency)
        elif kind is EventKind.BURST:
            end, _outcome = event.data
            registry.histogram("burst.cycles").observe(max(0, end - event.time))
    return registry
