"""Unit tests for wall-clock span tracing (`repro.obs.spans`) and the
metrics extensions it rides on (quantiles, gauges, labelled + fractional
histograms)."""

import json

import pytest

from repro.obs.chrome import chrome_trace, validate_chrome_trace
from repro.obs.metrics import Gauge, Histogram, MetricsRegistry, labeled_key
from repro.obs.spans import (
    STAGE_FLOOR,
    STAGE_HISTOGRAM,
    WALL_CLOCK_PID,
    Span,
    SpanContext,
    SpanRecorder,
    merge_chrome_traces,
    new_span_id,
    new_trace_id,
    read_spans_jsonl,
    render_span_report,
    render_span_tree,
    spans_chrome_trace,
    write_spans_jsonl,
)

# -- identity and propagation ---------------------------------------------------


def test_fresh_ids_are_wellformed_hex():
    trace, span = new_trace_id(), new_span_id()
    assert len(trace) == 32 and int(trace, 16) >= 0
    assert len(span) == 16 and int(span, 16) >= 0
    assert new_trace_id() != trace  # 128 bits: collisions don't happen


def test_traceparent_round_trip():
    context = SpanContext(new_trace_id(), new_span_id())
    header = context.to_traceparent()
    assert header == f"00-{context.trace_id}-{context.span_id}-01"
    assert SpanContext.from_traceparent(header) == context


@pytest.mark.parametrize("header", [
    None,
    42,
    "",
    "garbage",
    "00-abc-def-01",                                    # wrong lengths
    "00-" + "g" * 32 + "-" + "1" * 16 + "-01",          # non-hex trace
    "00-" + "0" * 32 + "-" + "1" * 16 + "-01",          # all-zero trace
    "00-" + "1" * 32 + "-" + "0" * 16 + "-01",          # all-zero span
    "00-" + "1" * 32 + "-" + "1" * 16,                  # missing flags
])
def test_traceparent_rejects_malformed_headers(header):
    assert SpanContext.from_traceparent(header) is None


def test_span_dict_round_trip_preserves_everything():
    span = Span("execute", attributes={"job": "j1"})
    span.set(extra=3)
    span.finish(status="error")
    clone = Span.from_dict(span.to_dict())
    assert clone.trace_id == span.trace_id
    assert clone.span_id == span.span_id
    assert clone.parent_id is None
    assert clone.name == "execute"
    assert clone.status == "error"
    assert clone.attributes == {"job": "j1", "extra": 3}
    assert clone.duration == span.duration


def test_finish_is_idempotent_first_status_wins():
    span = Span("x")
    span.finish(status="error")
    end = span.end
    span.finish(status="ok")
    assert span.end == end and span.status == "error"


def test_child_span_inherits_trace_via_any_parent_shape():
    recorder = SpanRecorder()
    root = recorder.start("root")
    for parent in (root, root.context, (root.trace_id, root.span_id)):
        child = recorder.start("child", parent=parent)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id


# -- recorder contract ----------------------------------------------------------


def test_span_contextmanager_marks_errors():
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with recorder.span("boom"):
            raise RuntimeError("nope")
    [span] = recorder.spans()
    assert span.status == "error" and span.end is not None


def test_recorder_capacity_drops_oldest():
    recorder = SpanRecorder(capacity=2)
    for name in ("a", "b", "c"):
        recorder.finish(recorder.start(name))
    assert [span.name for span in recorder.spans()] == ["b", "c"]
    assert recorder.dropped == 1 and recorder.recorded == 3


def test_recorder_folds_durations_into_stage_histograms():
    registry = MetricsRegistry()
    recorder = SpanRecorder(metrics=registry)
    recorder.finish(recorder.start("execute"))
    recorder.finish(recorder.start("execute"))
    recorder.finish(recorder.start("admit"))
    execute = registry.histogram(
        STAGE_HISTOGRAM, labels={"stage": "execute"}, floor=STAGE_FLOOR
    )
    assert execute.count == 2
    assert registry.histogram(
        STAGE_HISTOGRAM, labels={"stage": "admit"}, floor=STAGE_FLOOR
    ).count == 1


def test_absorb_skips_malformed_records():
    recorder = SpanRecorder()
    good = Span("worker").finish().to_dict()
    absorbed = recorder.absorb([good, {"nope": True}, "not-a-dict", None])
    assert absorbed == 1
    assert [span.name for span in recorder.spans()] == ["worker"]


# -- metrics extensions ---------------------------------------------------------


def test_quantile_upper_bounds_and_max_clamp():
    hist = Histogram("h")
    assert hist.quantile(0.5) == 0.0  # empty
    for value in (1, 2, 3, 100):
        hist.observe(value)
    assert hist.quantile(0.25) == 1.0
    assert hist.quantile(0.5) == 2.0
    # the p99 bucket bound (128) is clamped by the exact observed max
    assert hist.quantile(0.99) == 100.0
    assert hist.quantile(1.0) == 100.0


def test_fractional_floor_buckets_are_exact_powers_of_two():
    hist = Histogram("h", floor=-20)
    hist.observe(0.5)        # exactly 2**-1: upper bound 0.5
    hist.observe(0.375)      # in (2**-2, 2**-1]
    hist.observe(2 ** -25)   # below the floor: clamps to floor bucket
    hist.observe(0.0)
    assert hist.buckets == {-1: 2, -20: 2}
    assert hist.quantile(1.0) == 0.5


def test_floor_must_not_be_positive():
    with pytest.raises(ValueError):
        Histogram("h", floor=1)


def test_default_floor_preserves_integral_bucketing():
    hist = Histogram("h")
    hist.observe(0.25)
    hist.observe(1)
    assert hist.buckets == {0: 2}


def test_gauge_set_and_prometheus_exposition():
    registry = MetricsRegistry()
    registry.gauge("process.uptime_seconds", help="up").set(12.5)
    registry.gauge(
        "repro.build_info", help="info", labels={"version": "1.0.0"}
    ).set(1)
    text = registry.to_prometheus()
    assert "# TYPE process_uptime_seconds gauge" in text
    assert "process_uptime_seconds 12.5" in text
    assert 'repro_build_info{version="1.0.0"} 1' in text


def test_labelled_histogram_prometheus_merges_le_with_labels():
    registry = MetricsRegistry()
    registry.histogram(
        "stage.seconds", labels={"stage": "execute"}, floor=-20
    ).observe(0.5)
    text = registry.to_prometheus()
    assert 'stage_seconds_bucket{stage="execute",le="0.5"} 1' in text
    assert 'stage_seconds_bucket{stage="execute",le="+Inf"} 1' in text
    assert 'stage_seconds_sum{stage="execute"} 0.5' in text
    assert 'stage_seconds_count{stage="execute"} 1' in text
    # one TYPE line per family even with many labelled series
    registry.histogram("stage.seconds", labels={"stage": "admit"}, floor=-20)
    assert registry.to_prometheus().count("# TYPE stage_seconds histogram") == 1


def test_labeled_key_distinguishes_series():
    assert labeled_key("x") == "x"
    assert labeled_key("x", {"a": "1"}) == 'x{a="1"}'
    registry = MetricsRegistry()
    a = registry.histogram("x", labels={"stage": "a"})
    b = registry.histogram("x", labels={"stage": "b"})
    assert a is not b
    assert registry.histogram("x", labels={"stage": "a"}) is a


def test_gauge_class_basics():
    gauge = Gauge("g")
    assert gauge.value == 0.0
    gauge.set(3)
    assert gauge.to_dict() == {"type": "gauge", "value": 3}


# -- JSONL ----------------------------------------------------------------------


def test_spans_jsonl_round_trip(tmp_path):
    recorder = SpanRecorder()
    root = recorder.start("root")
    recorder.finish(recorder.start("child", parent=root))
    recorder.finish(root)
    path = tmp_path / "spans.jsonl"
    assert write_spans_jsonl(path, recorder.spans()) == 2
    loaded = read_spans_jsonl(path)
    assert [span.name for span in loaded] == ["child", "root"]
    assert loaded[0].parent_id == root.span_id


def test_read_spans_jsonl_skips_torn_tail(tmp_path):
    path = tmp_path / "spans.jsonl"
    span = Span("ok").finish()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(span.to_dict()) + "\n")
        handle.write('{"trace": "dead-beef", "name": "torn')  # crashed writer
    [loaded] = read_spans_jsonl(path)
    assert loaded.name == "ok"


def test_recorder_log_append_survives_reopen(tmp_path):
    path = tmp_path / "spans.jsonl"
    first = SpanRecorder(log=path)
    first.finish(first.start("a"))
    first.close()
    second = SpanRecorder(log=path)
    second.finish(second.start("b"))
    second.close()
    assert [span.name for span in read_spans_jsonl(path)] == ["a", "b"]


# -- Chrome export --------------------------------------------------------------


def _finished_trace():
    recorder = SpanRecorder()
    root = recorder.start("http")
    recorder.finish(recorder.start("execute", parent=root))
    recorder.finish(root)
    return recorder.spans()


def test_chrome_trace_validates_and_tracks_per_trace():
    spans = _finished_trace() + _finished_trace()  # two traces
    document = spans_chrome_trace(spans)
    validate_chrome_trace(document)
    slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 4
    assert {e["pid"] for e in slices} == {WALL_CLOCK_PID}
    assert {e["tid"] for e in slices} == {0, 1}  # one lane per trace
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in slices)
    assert document["otherData"]["spans"] == 4


def test_chrome_trace_carries_span_identity_in_args():
    [child, root] = _finished_trace()
    document = spans_chrome_trace([child, root])
    execute = next(
        e for e in document["traceEvents"] if e.get("name") == "execute"
    )
    assert execute["args"]["trace_id"] == root.trace_id
    assert execute["args"]["parent_id"] == root.span_id


def test_merge_with_cycle_trace_is_one_valid_document():
    cycle = chrome_trace([], dropped=0)
    merged = merge_chrome_traces(cycle, spans_chrome_trace(_finished_trace()))
    validate_chrome_trace(merged)
    assert merged["otherData"]["spans"] == 2
    pids = {e["pid"] for e in merged["traceEvents"] if "pid" in e}
    assert WALL_CLOCK_PID in pids


def test_empty_span_set_exports_empty_document():
    document = spans_chrome_trace([])
    assert document["traceEvents"] == []
    assert document["otherData"]["spans"] == 0


# -- reports --------------------------------------------------------------------


def test_render_span_report_has_quantile_columns():
    report = render_span_report(_finished_trace())
    assert "p50 ms" in report and "p95 ms" in report and "p99 ms" in report
    assert "http" in report and "execute" in report
    assert render_span_report([]) == "(no finished spans)"


def test_render_span_tree_nests_children_and_filters():
    spans = _finished_trace()
    tree = render_span_tree(spans)
    http_line = next(line for line in tree.splitlines() if "http" in line)
    execute_line = next(line for line in tree.splitlines() if "execute" in line)
    indent = lambda line: len(line) - len(line.lstrip())  # noqa: E731
    assert indent(execute_line) > indent(http_line)
    assert render_span_tree(spans, trace_id="nope") == "(no matching spans)"


def test_render_span_tree_roots_orphan_parents_at_trace():
    recorder = SpanRecorder()
    phantom = SpanContext(new_trace_id(), new_span_id())
    recorder.finish(recorder.start("child", parent=phantom))
    tree = render_span_tree(recorder.spans())
    assert "child" in tree and phantom.trace_id in tree
