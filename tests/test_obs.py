"""The observability layer: events, tracers, exporters, metrics, run logs."""

import json

import pytest

from repro.machine import SwitchModel
from repro.obs import (
    Counter,
    EventKind,
    Histogram,
    MetricsRegistry,
    RingBuffer,
    RingTracer,
    TraceEvent,
    Tracer,
    bursts,
    chrome_trace,
    event_to_record,
    metrics_from_events,
    read_events_jsonl,
    record_to_event,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.obs.events import DATA_FIELDS
from repro.obs.runlog import (
    RunLogWriter,
    default_entry,
    peak_rss_kb,
    read_runlog,
    render_runlog_report,
    summarize_runlog,
)
from sim_helpers import run_asm

WORKLOAD = """
    li r9, 12
loop:
    lws r1, 0(r0)
    add r2, r1, r1
    addi r9, r9, -1
    bne r9, r0, loop
    halt
"""


# -- events & ring buffer ------------------------------------------------------


def test_event_record_roundtrip_all_kinds():
    samples = {
        EventKind.INSTR: (12, 3),
        EventKind.BURST: (40, 0),
        EventKind.SWITCH_TAKEN: (250,),
        EventKind.SWITCH_SKIPPED: (),
        EventKind.SWITCH_FORCED: (),
        EventKind.MEM_ISSUE: (7, "READ", 16, 200),
        EventKind.MEM_COMPLETE: (7,),
        EventKind.CACHE_HIT: (16,),
        EventKind.CACHE_MISS: (17,),
        EventKind.CACHE_MERGE: (18,),
        EventKind.CACHE_EVICT: (2,),
        EventKind.FAA_COMBINE: (8, 5, 1),
        EventKind.INVALIDATE: (3,),
        EventKind.THREAD_HALT: (),
        EventKind.MEM_NACK: (7, 1, 8),
        EventKind.MEM_RETRY: (7, 1),
        EventKind.FAA_REPLAY: (8, 7),
        EventKind.COMPONENT_DEGRADE: (1, 2),
        EventKind.COMPONENT_FAIL: (1,),
        EventKind.COMPONENT_REPAIR: (1,),
    }
    assert set(samples) == set(EventKind) == set(DATA_FIELDS)
    for kind, data in samples.items():
        event = TraceEvent(100, kind, 1, 2, data)
        wire = json.loads(json.dumps(event_to_record(event)))
        assert record_to_event(wire) == event


def test_events_jsonl_roundtrip(tmp_path):
    events = [
        TraceEvent(0, EventKind.BURST, 0, 0, (10, 0)),
        TraceEvent(5, EventKind.MEM_ISSUE, 0, 0, (1, "READ", 8, 200)),
        TraceEvent(205, EventKind.MEM_COMPLETE, 0, 0, (1,)),
    ]
    path = tmp_path / "events.jsonl"
    assert write_events_jsonl(path, events) == 3
    assert read_events_jsonl(path) == events


def test_ring_buffer_drops_oldest():
    ring = RingBuffer(capacity=3)
    for index in range(7):
        ring.append(TraceEvent(index, EventKind.INSTR, 0, 0, (index, 0)))
    assert len(ring) == 3
    assert ring.total == 7
    assert ring.dropped == 4
    assert [event.time for event in ring] == [4, 5, 6]
    ring.clear()
    assert len(ring) == 0 and ring.dropped == 0


def test_ring_buffer_unbounded_and_validation():
    ring = RingBuffer()
    for index in range(5):
        ring.append(TraceEvent(index, EventKind.INSTR, 0, 0, (0, 0)))
    assert len(ring) == 5 and ring.dropped == 0
    with pytest.raises(ValueError):
        RingBuffer(capacity=0)


# -- tracers wired into the machine -------------------------------------------


def test_ring_tracer_records_machine_events():
    tracer = RingTracer()
    result = run_asm(
        WORKLOAD,
        model=SwitchModel.SWITCH_ON_LOAD,
        threads=2,
        latency=200,
        tracer=tracer,
    )
    events = tracer.events()
    kinds = {event.kind for event in events}
    assert EventKind.INSTR in kinds
    assert EventKind.BURST in kinds
    assert EventKind.MEM_ISSUE in kinds
    assert EventKind.MEM_COMPLETE in kinds
    assert EventKind.THREAD_HALT in kinds
    # Instruction events match the retired-instruction count (the trace
    # also shows each thread's final HALT, which stats don't retire).
    instr = sum(1 for e in events if e.kind is EventKind.INSTR)
    assert instr == result.stats.instructions + result.stats.halted_threads
    # Every issued transaction of a value-returning kind completes once.
    issued = {
        e.data[0]
        for e in events
        if e.kind is EventKind.MEM_ISSUE and e.data[1] in ("READ", "READ2", "FAA")
    }
    completed = [e.data[0] for e in events if e.kind is EventKind.MEM_COMPLETE]
    assert sorted(completed) == sorted(issued)
    # The stream's bursts cover every busy cycle.
    total = sum(end - start for start, _p, _t, end, _o in bursts(events))
    assert total == result.stats.busy_cycles


def test_tracing_does_not_change_simulation():
    plain = run_asm(WORKLOAD, model=SwitchModel.SWITCH_ON_LOAD, threads=2)
    traced = run_asm(
        WORKLOAD, model=SwitchModel.SWITCH_ON_LOAD, threads=2, tracer=RingTracer()
    )
    assert traced.wall_cycles == plain.wall_cycles
    assert traced.stats.to_dict() == plain.stats.to_dict()


def test_base_tracer_is_noop():
    tracer = Tracer()
    tracer.instr(0, 0, 0, 0, 0)
    tracer.burst(0, 0, 0, 1, 0)
    assert tracer.mem_issue(0, 0, 0, "READ", 0, 200) == 0


# -- Chrome exporter -----------------------------------------------------------


def test_chrome_trace_valid_and_complete(tmp_path):
    tracer = RingTracer()
    run_asm(
        WORKLOAD,
        model=SwitchModel.SWITCH_ON_LOAD,
        processors=2,
        threads=2,
        tracer=tracer,
    )
    document = chrome_trace(tracer.events(), tracer.dropped)
    validate_chrome_trace(document)
    phases = {entry["ph"] for entry in document["traceEvents"]}
    assert {"M", "X", "b", "e"} <= phases
    assert document["otherData"]["dropped"] == 0
    path = tmp_path / "trace.json"
    write_chrome_trace(path, tracer.events(), tracer.dropped)
    validate_chrome_trace(json.loads(path.read_text()))


def test_chrome_validation_rejects_bad_documents():
    with pytest.raises(ValueError, match="traceEvents"):
        validate_chrome_trace({"traceEvents": []})
    with pytest.raises(ValueError, match="phase"):
        validate_chrome_trace(
            {"traceEvents": [{"ph": "?", "pid": 0, "tid": 0, "ts": 0, "name": "x"}]}
        )
    with pytest.raises(ValueError, match="never ended"):
        validate_chrome_trace(
            {
                "traceEvents": [
                    {
                        "ph": "b",
                        "pid": 0,
                        "tid": 0,
                        "ts": 0,
                        "name": "txn",
                        "cat": "mem",
                        "id": 1,
                    }
                ]
            }
        )


# -- metrics -------------------------------------------------------------------


def test_counter_and_histogram_basics():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    hist = Histogram("h")
    for value in (1, 1.5, 2, 3, 100):
        hist.observe(value)
    assert hist.count == 5
    assert hist.buckets[0] == 1  # value 1
    assert hist.buckets[1] == 2  # 1.5 and 2 both land in (1, 2]
    assert hist.buckets[2] == 1  # 3 in (2, 4]
    assert hist.buckets[7] == 1  # 100 in (64, 128]
    assert hist.min == 1 and hist.max == 100
    assert hist.quantile(0.5) == 2.0
    with pytest.raises(ValueError):
        hist.observe(-1)


def test_registry_name_clash_and_render():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.histogram("b").observe(3)
    with pytest.raises(TypeError):
        registry.histogram("a")
    with pytest.raises(TypeError):
        registry.counter("b")
    text = registry.render()
    assert "counters:" in text and "histograms:" in text
    # p50 and p95 are clamped by the observed max (one observation of 3)
    [row] = [line.split() for line in text.splitlines()
             if line.split()[:1] == ["b"]]
    p50, p95, peak = (float(cell) for cell in row[3:])
    assert p50 <= peak and p95 <= peak == 3
    wire = json.loads(json.dumps(registry.to_dict()))
    assert wire["a"]["value"] == 1
    assert wire["b"]["count"] == 1


def test_metrics_from_events_and_stats_agree():
    tracer = RingTracer()
    result = run_asm(
        WORKLOAD, model=SwitchModel.SWITCH_ON_LOAD, threads=2, tracer=tracer
    )
    from_events = metrics_from_events(tracer.events())
    from_stats = result.stats.to_metrics()
    halts = result.stats.halted_threads  # traced, but not "retired"
    assert from_stats.counter("instr").value == result.stats.instructions
    assert from_events.counter("instr").value == result.stats.instructions + halts
    assert (
        from_events.counter("switch.taken").value
        == from_stats.counter("switch.taken").value
    )
    for name in ("READ", "WRITE"):
        assert (
            from_events.counter(f"mem.issue.{name}").value
            == from_stats.counter(f"mem.issue.{name}").value
        )
    assert from_events.histogram("burst.cycles").count > 0
    assert from_stats.histogram("run.length").count == result.stats.total_runs


# -- run log -------------------------------------------------------------------


def test_runlog_roundtrip_and_torn_line(tmp_path):
    path = tmp_path / "runlog.jsonl"
    with RunLogWriter(path) as writer:
        writer.append(default_entry(spec="a", source="run", elapsed=1.0))
        writer.append(default_entry(spec="b", source="cached", elapsed=0.0))
        assert writer.entries_written == 2
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"spec": "torn')  # crash mid-write
    entries = read_runlog(path)
    assert [entry["spec"] for entry in entries] == ["a", "b"]
    assert all(entry["worker"] for entry in entries)


def test_runlog_summary_and_report():
    entries = [
        {"spec": "a", "source": "run", "elapsed": 2.0, "worker": 10,
         "peak_rss_kb": 2048, "wall_cycles": 100},
        {"spec": "b", "source": "cached", "elapsed": 0.1, "worker": 10,
         "peak_rss_kb": 4096, "wall_cycles": 200},
        {"spec": "c", "source": "failed", "elapsed": 0.5, "worker": 11,
         "error": {"type": "SimulationTimeout", "message": "boom"}},
    ]
    summary = summarize_runlog(entries)
    assert summary["entries"] == 3
    assert summary["by_source"] == {"run": 1, "cached": 1, "failed": 1}
    assert summary["by_worker"] == {10: 2, 11: 1}
    assert summary["peak_rss_kb"] == 4096
    assert summary["elapsed_total"] == pytest.approx(2.6)
    assert [entry["spec"] for entry in summary["slowest"][:2]] == ["a", "c"]
    report = render_runlog_report(entries)
    assert "3 entries" in report
    assert "SimulationTimeout" in report
    assert render_runlog_report([]) == "(empty run log)"


def test_peak_rss_is_positive_on_posix():
    rss = peak_rss_kb()
    assert rss is None or rss > 0


# -- engine integration --------------------------------------------------------


def test_engine_writes_runlog(tmp_path):
    from repro.engine import Engine, RunSpec

    spec = RunSpec.create("sieve", model="switch-on-load", processors=1,
                          level=2, scale="tiny")
    with Engine(cache=tmp_path / "cache") as engine:
        engine.run(spec)
        report = engine.counters()
    assert report["runlog"] == str(tmp_path / "cache" / "runlog.jsonl")
    assert report["peak_rss_kb"] == peak_rss_kb() or report["peak_rss_kb"] is None
    # A second engine resolves from disk and logs a cached entry.
    with Engine(cache=tmp_path / "cache") as engine:
        engine.run(spec)
    entries = read_runlog(tmp_path / "cache" / "runlog.jsonl")
    assert [entry["source"] for entry in entries] == ["run", "cached"]
    assert entries[0]["app"] == "sieve"
    assert entries[0]["model"] == "switch-on-load"
    assert entries[0]["wall_cycles"] > 0
    assert entries[0]["worker"] > 0


def test_engine_logs_failures(tmp_path):
    from repro.engine import Engine, RunSpec
    from repro.machine.simulator import SimulationTimeout

    spec = RunSpec.create("sieve", model="switch-on-load", processors=1,
                          level=2, scale="tiny", max_cycles=10)
    with Engine(cache=tmp_path / "cache") as engine:
        with pytest.raises(SimulationTimeout):
            engine.run(spec)
    entries = read_runlog(tmp_path / "cache" / "runlog.jsonl")
    assert entries[0]["source"] == "failed"
    assert entries[0]["error"]["type"] == "SimulationTimeout"


# -- model aliases & facade ----------------------------------------------------


def test_switch_model_parse():
    assert SwitchModel.parse("eswitch") is SwitchModel.EXPLICIT_SWITCH
    assert SwitchModel.parse("cswitch") is SwitchModel.CONDITIONAL_SWITCH
    assert SwitchModel.parse("hep") is SwitchModel.SWITCH_EVERY_CYCLE
    assert SwitchModel.parse("SWITCH_ON_USE") is SwitchModel.SWITCH_ON_USE
    assert SwitchModel.parse("switch-on-load") is SwitchModel.SWITCH_ON_LOAD
    assert SwitchModel.parse(SwitchModel.IDEAL) is SwitchModel.IDEAL
    with pytest.raises(ValueError, match="unknown switch model"):
        SwitchModel.parse("bogus")


def test_simulate_with_tracer():
    from repro import simulate

    tracer = RingTracer()
    result = simulate(
        "sieve", model="explicit-switch", processors=2, level=2,
        scale="tiny", tracer=tracer,
    )
    assert result.wall_cycles > 0
    assert tracer.total_events > 0
    validate_chrome_trace(chrome_trace(tracer.events(), tracer.dropped))


# -- repro-trace CLI -----------------------------------------------------------


def test_trace_cli_run_and_report(tmp_path, capsys):
    from repro.obs.cli import main

    out = tmp_path / "trace.json"
    events = tmp_path / "events.jsonl"
    code = main([
        "run", "sieve", "--model", "eswitch", "--processors", "2",
        "--level", "2", "--scale", "tiny",
        "--out", str(out), "--events", str(events),
        "--timeline", "--metrics",
    ])
    assert code == 0
    validate_chrome_trace(json.loads(out.read_text()))
    assert read_events_jsonl(events)
    captured = capsys.readouterr()
    assert "processor occupancy" in captured.out
    assert "counters:" in captured.out

    runlog = tmp_path / "runlog.jsonl"
    with RunLogWriter(runlog) as writer:
        writer.append(default_entry(spec="x", source="run", elapsed=1.0))
    assert main(["report", str(runlog)]) == 0
    assert "1 entries" in capsys.readouterr().out


def test_trace_cli_check_lints_before_and_checks_after(tmp_path, capsys,
                                                     monkeypatch):
    """``repro-trace run --check`` bypasses the engine, so it makes the
    checked engine's two checks itself: lint before the traced run (a
    lint error stops it before anything is written), the oracle after."""
    from repro.lint import LintError, LintReport, lint_spec_cached
    from repro.lint.diagnostics import Diagnostic, Severity
    from repro.obs.cli import main

    out = tmp_path / "trace.json"
    argv = ["run", "sieve", "--model", "eswitch", "--processors", "2",
            "--level", "2", "--scale", "tiny", "--check", "--out", str(out)]
    assert main(argv) == 0
    assert "lint and invariant checks passed" in capsys.readouterr().err
    out.unlink()

    def failing(original, prepared, model):
        return LintReport(prepared.name, "explicit-switch", [Diagnostic(
            rule_id="isa-no-halt", severity=Severity.ERROR,
            message="seeded", program=prepared.name,
        )])

    monkeypatch.setattr("repro.lint.lint_pair", failing)
    lint_spec_cached.cache_clear()
    try:
        with pytest.raises(LintError, match="isa-no-halt"):
            main(argv)
    finally:
        lint_spec_cached.cache_clear()
    assert not out.exists()


def test_trace_cli_rejects_unknown_model(tmp_path, capsys):
    from repro.obs.cli import main

    assert main(["run", "sieve", "--model", "bogus",
                 "--out", str(tmp_path / "t.json")]) == 2
    assert "unknown switch model" in capsys.readouterr().err


def test_lifecycle_events_trace_chrome_and_metrics():
    """COMPONENT_DEGRADE/FAIL/REPAIR flow through the ring tracer, count
    exactly what the availability ledger counts, export as a valid
    Chrome document under the "lifecycle" category, and surface as
    Prometheus counters."""
    from repro.faults import FaultConfig
    from repro.obs.metrics import metrics_from_events

    tracer = RingTracer()
    result = run_asm(
        WORKLOAD,
        model=SwitchModel.SWITCH_ON_LOAD,
        processors=2,
        threads=2,
        latency=200,
        tracer=tracer,
        faults=FaultConfig(
            lifecycle={
                "components": 2,
                "seed": 7,
                "mean_healthy": 500,
                "mean_degraded": 300,
                "mean_failed": 200,
                "mean_repair": 200,
            }
        ),
    )
    events = tracer.events()
    stats = result.stats
    fails = [e for e in events if e.kind is EventKind.COMPONENT_FAIL]
    repairs = [e for e in events if e.kind is EventKind.COMPONENT_REPAIR]
    degrades = [e for e in events if e.kind is EventKind.COMPONENT_DEGRADE]
    assert degrades and fails
    assert len(fails) == stats.lifecycle_failures
    assert len(repairs) == stats.lifecycle_repairs
    assert {e.data[0] for e in fails} <= {0, 1}
    # Chrome export: valid document, lifecycle instants categorized.
    document = chrome_trace(events, tracer.dropped)
    validate_chrome_trace(document)
    lifecycle_instants = [
        entry for entry in document["traceEvents"]
        if entry.get("cat") == "lifecycle"
    ]
    assert len(lifecycle_instants) == len(fails) + len(repairs) + len(degrades)
    # Prometheus: per-kind event counters plus availability counters.
    registry = metrics_from_events(events)
    assert registry.counter("component.fail").value == len(fails)
    assert registry.counter("component.degrade").value == len(degrades)
    text = stats.to_metrics().to_prometheus()
    assert f"lifecycle_failures_total {len(fails)}" in text
    assert 'lifecycle_component_failures_total{component="0"}' in text
