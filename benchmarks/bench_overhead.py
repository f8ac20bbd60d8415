"""What observability and fault injection cost when they are switched on.

The switched-off forms need no timing: ``None`` is the only way to turn
the tracer or the span recorder off, and an inert ``FaultConfig`` or a
lifecycle that never transitions builds no fault machinery
(``test_inert_configs_build_no_fault_machinery``), so they run the bare
code.

The enabled tracer, the enabled recorder and active faults may cost
real time: they are measured and sanity-checked here, not bounded.

Run with ``PYTHONPATH=src python -m pytest -q -s benchmarks/bench_overhead.py``.
"""

import dataclasses
import time

from repro.engine.executor import Engine, _build
from repro.engine.spec import RunSpec
from repro.faults import FaultConfig, LifecycleConfig
from repro.machine.models import SwitchModel
from repro.obs import RingTracer
from repro.obs.spans import SpanRecorder
from repro.runtime.execution import run_app


def _spec():
    return RunSpec.create(
        "sieve", model="explicit-switch", processors=4, level=4, scale="small"
    )


def _sieve():
    app, program = _build("sieve", 16, SwitchModel.EXPLICIT_SWITCH.value, "small")
    return app, program, _spec().machine_config()


def _time_run(app, program, config, tracer=None):
    start = time.perf_counter()
    run_app(app, config, program=program, tracer=tracer)
    return time.perf_counter() - start


def _time_engine(spans):
    # A fresh engine keeps the memo cold, so the timing runs the
    # simulation for real.
    engine = Engine(cache=None, spans=spans)
    spec = _spec()
    start = time.perf_counter()
    engine.run(spec)
    elapsed = time.perf_counter() - start
    engine.close()
    return elapsed


def _inert_lifecycle(config):
    return dataclasses.replace(
        config, faults=FaultConfig(lifecycle=LifecycleConfig(mean_healthy=0))
    )


def test_disabled_and_inert_lifecycle_stats_identical():
    """Byte-level side of the fast-path contract, at the run_app level:
    an inert lifecycle changes nothing but the (all-up) availability
    ledger it reports."""
    from repro.check.golden import canonical_stats

    app, program, config = _sieve()
    inert = _inert_lifecycle(config)
    bare = run_app(app, config, program=program).stats.to_dict()
    dressed = run_app(app, inert, program=program).stats.to_dict()
    ledger = dressed.pop("component_availability")
    bare.pop("component_availability")
    assert bare == dressed
    wall = dressed["wall_cycles"]
    assert [
        (comp["uptime_cycles"], comp["failures"]) for comp in ledger
    ] == [(wall, 0)] * len(ledger)
    # And the canonical serialization itself is deterministic.
    repeat = run_app(app, inert, program=program)
    again = run_app(app, inert, program=program)
    assert canonical_stats(repeat.stats) == canonical_stats(again.stats)


def test_enabled_tracer_records_everything(benchmark):
    """Enabled tracing is allowed to cost real time — measure it and
    sanity-check the stream rather than bound it."""
    app, program, config = _sieve()
    tracer = RingTracer()

    def traced():
        tracer.clear()
        return _time_run(app, program, config, tracer)

    elapsed = benchmark.pedantic(traced, rounds=1, iterations=1)
    assert elapsed > 0
    assert tracer.total_events > 0


def test_enabled_recorder_captures_dispatch_tree():
    """Enabled recording is allowed to cost real time — sanity-check the
    span tree it produces rather than bound it."""
    recorder = SpanRecorder()
    elapsed = _time_engine(recorder)
    assert elapsed > 0
    spans = recorder.spans()
    names = {span.name for span in spans}
    assert {"cache-lookup", "dispatch", "simulate", "build", "run"} <= names
    assert len({span.trace_id for span in spans}) == 1


def test_active_faults_cost_is_measured_not_bounded(benchmark):
    """Jitter + loss are allowed to cost real time — measure one faulty
    run and sanity-check the retry machinery actually engaged."""
    app, program, config = _sieve()
    faulty = dataclasses.replace(
        config,
        faults=FaultConfig(latency_model="uniform", jitter=100, loss_rate=0.01),
    )

    def run_faulty():
        return run_app(app, faulty, program=program)

    result = benchmark.pedantic(run_faulty, rounds=1, iterations=1)
    assert result.stats.mem_issued == result.stats.mem_completed
    assert result.stats.retries == result.stats.nacks
