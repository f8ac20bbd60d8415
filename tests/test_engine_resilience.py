"""Engine resilience: run deadlines, pool restarts, cache quarantine."""

import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro.engine import Engine, ResultCache, RunSpec
from repro.engine import executor as executor_module
from repro.machine.simulator import DeadlineExceeded, SimulationTimeout
from repro.obs.runlog import read_runlog
from repro.obs.spans import SpanRecorder

_REAL_EXECUTE = executor_module.execute_spec

_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not _FORK, reason="patched workers require fork inheritance"
)

#: Marker-file path for the one-shot worker killer (set by the test
#: before the pool forks; inherited by the children).  The patched
#: executor is module-level so worker processes (forked before the
#: sweep, inheriting the monkeypatch and this module in sys.modules)
#: unpickle it by reference.
_KILL_MARKER = ""


def _killer_execute(spec, span_context=None, timeout=None):
    if spec.app == "sor" and not os.path.exists(_KILL_MARKER):
        with open(_KILL_MARKER, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_EXECUTE(spec, span_context, timeout)


def _spec(app, **kwargs):
    kwargs.setdefault("model", "switch-on-load")
    kwargs.setdefault("processors", 2)
    kwargs.setdefault("level", 2)
    kwargs.setdefault("scale", "tiny")
    return RunSpec(app=app, **kwargs)


# -- the run deadline ---------------------------------------------------------------

#: The paper's Section 6.2 starvation: without the forced-switch cap a
#: thread spinning on cache hits starves the lock holder, so this run
#: never ends before its cycle cap (10**7 cycles take about 10 s).
LIVELOCK = RunSpec.create(
    "ugray", model="conditional-switch", processors=2, level=4,
    scale="tiny", forced_switch_interval=0, max_cycles=10**7,
)


def _assert_deadline_failure(engine, started):
    """The livelock failed at the engine's 1 s deadline: counted, logged
    and returned by ``failure``, and never written to the cache."""
    assert time.monotonic() - started < 2.0
    error = engine.failure(LIVELOCK.key())
    assert error["type"] == "DeadlineExceeded" != SimulationTimeout.__name__
    assert LIVELOCK.label() in error["message"]
    assert engine.counters()["failed"] == 1
    [logged] = [
        entry for entry in read_runlog(engine.runlog_path)
        if entry["key"] == LIVELOCK.key()
    ]
    assert logged["source"] == "failed" and logged["error"] == error
    assert LIVELOCK.key() not in engine.cache


def test_deadline_stops_an_in_process_run(tmp_path):
    started = time.monotonic()
    with Engine(workers=1, timeout=1.0, cache=tmp_path) as engine:
        with pytest.raises(Exception, match="DeadlineExceeded"):
            engine.run(LIVELOCK)
        _assert_deadline_failure(engine, started)
    # Not cached, so a second engine on the same cache runs it again.
    with Engine(workers=1, timeout=0.2, cache=tmp_path) as engine:
        assert engine.run_many([LIVELOCK], on_error="record") == [None]
        assert engine.failure(LIVELOCK.key())["type"] == "DeadlineExceeded"
        assert engine.counters()["cached"] == 0


def test_deadline_failure_is_run_again_until_a_run_succeeds():
    """A deadline failure is no memo hit: each request simulates the spec
    again up to the deadline, and ``failure`` reports the deadline until
    a run of the spec succeeds."""
    with Engine(workers=1, timeout=0.3) as engine:
        for attempt in (1, 2):
            started = time.monotonic()
            with pytest.raises(Exception, match="DeadlineExceeded"):
                engine.run(LIVELOCK)
            assert time.monotonic() - started >= 0.3
            counters = engine.counters()
            assert (counters["failed"], counters["memo_hits"]) == (attempt, 0)
            assert engine.failure(LIVELOCK.key())["type"] == "DeadlineExceeded"
    quick = _spec("sieve")
    with Engine(workers=1, timeout=1e-9) as engine:
        assert engine.run_many([quick], on_error="record") == [None]
        assert engine.failure(quick.key())["type"] == "DeadlineExceeded"
        engine.timeout = None
        assert engine.run(quick).wall_cycles > 0
        assert engine.failure(quick.key()) is None
        assert engine.counters()["executed"] == 1


def test_deadline_frees_a_pool_worker(tmp_path):
    """A pooled run stops at the deadline too, so ``close()`` finds no
    worker still running it."""
    quick = _spec("sieve")
    started = time.monotonic()
    engine = Engine(workers=2, timeout=1.0, cache=tmp_path)
    try:
        results = engine.run_many([LIVELOCK, quick], on_error="record")
    finally:
        engine.close()
    assert results[0] is None and results[1] is not None
    _assert_deadline_failure(engine, started)
    assert quick.key() in engine.cache


def test_simulator_reads_the_clock_only_with_a_deadline(monkeypatch):
    """No deadline, no clock read; a passed one stops the loop within
    ``CLOCK_EVENTS`` events, never per instruction."""
    from repro.engine.executor import _build
    from repro.machine import simulator as simulator_module
    from repro.runtime.execution import run_app

    spec = _spec("sieve")
    app, program = _build(spec.app, spec.total_threads, spec.model, spec.scale)
    reads = []
    monkeypatch.setattr(
        simulator_module, "monotonic", lambda: reads.append(1) or 1e12
    )
    run_app(app, spec.machine_config(), program=program)
    assert reads == []
    with pytest.raises(DeadlineExceeded, match="wall-clock deadline"):
        run_app(app, spec.machine_config(), program=program, deadline=0.0)
    assert len(reads) == 1


# -- surviving worker death ---------------------------------------------------------


@needs_fork
def test_sweep_survives_worker_killed_mid_flight(tmp_path, monkeypatch):
    """SIGKILLing a worker mid-sweep must not lose any run: unresolved
    specs are resubmitted to a fresh pool and the sweep completes with
    full, input-ordered results."""
    monkeypatch.setattr(executor_module, "execute_spec", _killer_execute)
    monkeypatch.setattr(
        sys.modules[__name__], "_KILL_MARKER", str(tmp_path / "killed")
    )
    specs = [_spec("sieve"), _spec("sor"), _spec("blkmat")]
    with Engine(workers=1) as serial_engine:
        expected = [r.wall_cycles for r in serial_engine.run_many(specs)]
    with Engine(workers=2) as engine:
        results = engine.run_many(specs)
        assert os.path.exists(_KILL_MARKER)  # the kill really happened
        assert [r.wall_cycles for r in results] == expected
        assert engine.counters()["failed"] == 0


def test_serial_drain_after_pool_declared_broken():
    """Once the pool is marked broken, sweeps run serially and still
    complete."""
    specs = [_spec("sieve"), _spec("sor")]
    with Engine(workers=2) as engine:
        engine._pool_broken = True
        results = engine.run_many(specs)
        assert all(r is not None for r in results)


# -- cache quarantine ---------------------------------------------------------------


def test_corrupt_cache_entry_is_quarantined_and_rerun(tmp_path):
    spec = _spec("sieve")
    cache = ResultCache(tmp_path, version="v1")
    with Engine(cache=cache) as engine:
        first = engine.run(spec)
    entry = cache._path(spec.key())
    assert entry.exists()
    entry.write_text('{"truncated": ')  # simulate a torn/corrupted write

    fresh_cache = ResultCache(tmp_path, version="v1")
    with Engine(cache=fresh_cache) as engine:
        again = engine.run(spec)  # corrupt entry reads as a miss -> re-run
        report = engine.counters()
        summary = engine.summary_line()
    assert again.wall_cycles == first.wall_cycles
    assert fresh_cache.quarantined == 1
    assert report["quarantined"] == 1
    assert "quarantined" in summary
    # The corrupt bytes were moved aside for diagnosis, not destroyed.
    quarantined = list(fresh_cache.quarantine_dir.glob("v1-*.json"))
    assert len(quarantined) == 1
    assert quarantined[0].read_text() == '{"truncated": '
    # The re-run repaired the entry in place.
    assert ResultCache(tmp_path, version="v1").get(spec.key()) is not None


def test_quarantine_counts_accumulate(tmp_path):
    cache = ResultCache(tmp_path, version="v1")
    cache._bucket.mkdir(parents=True)
    for name in ("a", "b"):
        cache._path(name).write_text("not json")
    assert cache.get("a") is None
    assert cache.get("b") is None
    assert cache.get("missing") is None  # plain miss, not quarantined
    assert cache.quarantined == 2
    assert cache.misses == 3


# -- timeout diagnostics ------------------------------------------------------------


def test_simulation_timeout_message_carries_machine_context():
    spec = _spec("sieve", overrides=(("max_cycles", 50),))
    with Engine() as engine:
        with pytest.raises(SimulationTimeout) as info:
            engine.run(spec)
    message = str(info.value)
    # Engine prefixes the spec label; the simulator appends its shape.
    assert "sieve/switch-on-load" in message
    assert "model=switch-on-load" in message
    assert "P=2" in message and "M=2" in message


def test_failed_run_keeps_its_run_span():
    """A run that raises finishes its open ``run`` span with status
    ``error`` under its ``simulate`` span, so the failed run's time is
    not counted as ``simulate`` self time."""
    recorder = SpanRecorder(capacity=None)
    spec = _spec("sieve", overrides=(("max_cycles", 50),))
    with Engine(spans=recorder) as engine:
        with pytest.raises(SimulationTimeout):
            engine.run(spec)
    spans = recorder.spans()
    (simulate,) = [s for s in spans if s.name == "simulate"]
    (build,) = [s for s in spans if s.name == "build"]
    (run,) = [s for s in spans if s.name == "run"]
    assert simulate.status == "error" and build.status == "ok"
    assert run.parent_id == simulate.span_id and run.status == "error"
    assert simulate.start <= run.start <= run.end <= simulate.end
