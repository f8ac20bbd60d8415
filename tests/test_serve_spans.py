"""End-to-end span-tracing tests across serve → engine → worker, plus
the satellite behaviours that ride on the span histograms: the p95
Retry-After estimate, the process-level /metrics gauges, and torn-tail
tolerance of the report CLIs."""

import json
import os

import pytest

import repro
from repro.engine.executor import Engine
from repro.engine.spec import RunSpec
from repro.obs import cli as obs_cli
from repro.obs.spans import (
    STAGE_FLOOR,
    STAGE_HISTOGRAM,
    SpanRecorder,
    read_spans_jsonl,
)
from repro.serve import Client, ReproServer, ServerConfig
from repro.serve.scheduler import JobScheduler

TINY = {"app": "sieve", "model": "eswitch", "processors": 2, "level": 2,
        "scale": "tiny"}
TINY2 = {"app": "sieve", "model": "sol", "processors": 2, "level": 2,
         "scale": "tiny"}


@pytest.fixture
def traced_server(tmp_path):
    config = ServerConfig(
        port=0, quiet=True, workers=2, cache_dir=tmp_path / "cache",
        spans=True,
    )
    with ReproServer(config) as running:
        yield running


# -- one trace across every process boundary ------------------------------------


def test_served_job_yields_one_span_tree_across_processes(traced_server):
    recorder = SpanRecorder()
    client = Client(traced_server.url, spans=recorder)
    accepted = client.submit([TINY, TINY2])
    assert "trace" in accepted
    client.result(accepted, timeout=120.0)
    traced_server.shutdown()

    trace_id = accepted["trace"]
    [client_span] = recorder.spans()
    assert client_span.name == "client-submit"
    assert client_span.trace_id == trace_id  # server joined the client's trace

    log = traced_server.config.resolved_spans()
    spans = [s for s in read_spans_jsonl(log) if s.trace_id == trace_id]
    names = {span.name for span in spans}
    assert {"http", "admit", "queue-wait", "execute", "cache-lookup",
            "dispatch", "simulate", "deserialize", "serialize"} <= names
    assert all(span.status == "ok" for span in spans)

    # the span tree is connected: every parent is either another span of
    # the trace or the client's span
    ids = {span.span_id for span in spans} | {client_span.span_id}
    assert all(span.parent_id in ids for span in spans)


def test_worker_side_simulate_span_carries_request_trace_id(traced_server):
    client = Client(traced_server.url)
    accepted = client.submit([TINY, TINY2])  # 2 pending specs -> pool path
    client.result(accepted, timeout=120.0)
    traced_server.shutdown()

    spans = read_spans_jsonl(traced_server.config.resolved_spans())
    simulate = [s for s in spans if s.name == "simulate"]
    assert len(simulate) == 2
    assert {s.trace_id for s in simulate} == {accepted["trace"]}
    workers = {s.attributes["worker"] for s in simulate}
    assert workers  # every simulate span records the pid that ran it
    if traced_server.engine._pool is not None:  # pool really engaged
        assert os.getpid() not in workers


def test_coalesced_submission_records_instant_coalesce_span(traced_server):
    first = Client(traced_server.url)
    second = Client(traced_server.url)
    accepted = first.submit([TINY, TINY2])
    again = second.submit([TINY, TINY2])
    assert again["job"] == accepted["job"]
    first.result(accepted, timeout=120.0)
    traced_server.shutdown()

    spans = read_spans_jsonl(traced_server.config.resolved_spans())
    [coalesce] = [s for s in spans if s.name == "coalesce"]
    # the coalesce span lives on the second request's trace, not the
    # admitting job's
    assert coalesce.trace_id == again["trace"] != accepted["trace"]


def test_failed_job_marks_execute_span_status(tmp_path):
    recorder = SpanRecorder()
    # A deadline no run can meet: the clock is read every CLOCK_EVENTS
    # events, and this spec needs far more of them than that.
    engine = Engine(cache=None, spans=recorder, timeout=1e-9)
    scheduler = JobScheduler(engine, spans=recorder)
    spec = RunSpec.create(**{**TINY, "model": "explicit-switch"})
    job, _ = scheduler.submit([spec])
    assert job.wait(60.0)
    scheduler.stop()
    assert job.error["type"] == "DeadlineExceeded"
    statuses = {s.name: s.status for s in recorder.spans()}
    assert statuses["run"] == "error"  # the run stopped at the deadline
    assert statuses["serialize"] == "error"  # failure surfaced collecting


# -- Retry-After: p95 of the execute histogram ----------------------------------


def _record_execute(recorder, seconds):
    span = recorder.start("execute", start=0.0)
    span.end = seconds
    recorder.record(span)


def test_retry_after_uses_execute_p95_when_histogram_populated():
    recorder = SpanRecorder()
    engine = Engine(cache=None)
    scheduler = JobScheduler(engine, spans=recorder)
    try:
        _record_execute(recorder, 1.0)
        _record_execute(recorder, 7.5)
        scheduler._elapsed.append(1.0)  # the mean path would say 1s
        assert scheduler._retry_after() == 8  # p95 upper estimate wins
    finally:
        scheduler.stop()


def test_retry_after_falls_back_to_mean_without_span_data():
    engine = Engine(cache=None)
    scheduler = JobScheduler(engine)  # spans off: histogram never exists
    try:
        scheduler._elapsed.extend([2.0, 4.0])
        assert scheduler._retry_after() == 3
    finally:
        scheduler.stop()


def test_retry_after_falls_back_to_mean_while_histogram_empty():
    recorder = SpanRecorder()
    engine = Engine(cache=None)
    scheduler = JobScheduler(engine, spans=recorder)
    try:
        # the family exists (registered lazily on first record) but holds
        # no execute observations yet
        scheduler._elapsed.extend([2.0, 4.0])
        assert scheduler._retry_after() == 3
    finally:
        scheduler.stop()


# -- /metrics satellites --------------------------------------------------------


def test_metrics_exports_stage_histograms_and_process_gauges(traced_server):
    client = Client(traced_server.url)
    client.result(client.submit(TINY), timeout=120.0)
    text = client.metrics()
    assert 'serve_stage_seconds_bucket{stage="execute",le="' in text
    assert 'serve_stage_seconds_count{stage="execute"} 1' in text
    assert 'serve_stage_seconds_bucket{stage="simulate",le="' in text
    assert "# TYPE process_uptime_seconds gauge" in text
    assert "# TYPE repro_build_info gauge" in text
    assert f'version="{repro.__version__}"' in text
    assert 'backend="' in text
    # one TYPE header for the whole labelled family
    assert text.count("# TYPE serve_stage_seconds histogram") == 1


def test_process_gauges_present_even_with_spans_off(tmp_path):
    config = ServerConfig(port=0, quiet=True, cache_dir=tmp_path / "cache")
    with ReproServer(config) as server:
        text = Client(server.url).metrics()
    assert "process_uptime_seconds" in text
    assert "repro_build_info" in text
    assert "serve_stage_seconds" not in text  # spans off: no stage series


def test_health_reports_span_recorder_counts(traced_server):
    client = Client(traced_server.url)
    client.result(client.submit(TINY), timeout=120.0)
    health = client.health()
    assert health["spans"]["recorded"] > 0
    assert health["spans"]["dropped"] == 0


# -- report CLIs tolerate torn tails --------------------------------------------


def test_repro_trace_spans_tolerates_torn_tail(tmp_path, capsys):
    config = ServerConfig(
        port=0, quiet=True, cache_dir=tmp_path / "cache", spans=True
    )
    with ReproServer(config) as server:
        client = Client(server.url)
        client.result(client.submit(TINY), timeout=120.0)
    log = config.resolved_spans()
    with open(log, "a", encoding="utf-8") as handle:
        handle.write('{"trace": "feedface", "name": "torn')  # no newline
    merged = tmp_path / "merged.json"
    code = obs_cli.main([
        "spans", str(log), "--tree", "--chrome", str(merged),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "execute" in out and "torn" not in out
    document = json.loads(merged.read_text())
    assert document["traceEvents"]


def test_repro_trace_report_tolerates_torn_tail_and_prints_quantiles(
    tmp_path, capsys
):
    runlog = tmp_path / "runlog.jsonl"
    entries = [
        {"ts": 1.0, "spec": "a", "source": "run", "elapsed": 0.25,
         "worker": 1, "wall_cycles": 10},
        {"ts": 2.0, "spec": "b", "source": "run", "elapsed": 1.5,
         "worker": 1, "wall_cycles": 20},
    ]
    with open(runlog, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry) + "\n")
        handle.write('{"ts": 3.0, "spec": "torn')
    assert obs_cli.main(["report", str(runlog)]) == 0
    out = capsys.readouterr().out
    assert "2 entries" in out
    assert "elapsed p50/p95/p99" in out


# -- disabled-recording byte identity -------------------------------------------


def test_disabled_recorder_results_byte_identical(tmp_path):
    """``spans=None`` is off; recording changes observability, never
    results."""
    spec = RunSpec.create("sieve", model="explicit-switch", processors=2,
                          level=2, scale="tiny")
    with Engine(cache=None, spans=None) as plain:
        baseline = plain.run(spec)
    with Engine(cache=None, spans=SpanRecorder()) as recording:
        traced = recording.run(spec)
    assert json.dumps(traced.to_dict(), sort_keys=True) == json.dumps(
        baseline.to_dict(), sort_keys=True
    )


def test_cached_payloads_never_carry_spans(tmp_path):
    spec = RunSpec.create("sieve", model="explicit-switch", processors=2,
                          level=2, scale="tiny")
    with Engine(cache=tmp_path / "cache", spans=SpanRecorder()) as engine:
        engine.run(spec)
        key = engine._effective(spec).key()
        payload = engine.cache.get(key)
    assert payload is not None and "spans" not in payload
