"""Engine resilience: per-run deadlines, pool restarts, cache quarantine."""

import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro.engine import Engine, ResultCache, RunSpec
from repro.engine import executor as executor_module
from repro.machine.simulator import SimulationTimeout

_REAL_EXECUTE = executor_module.execute_spec

_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not _FORK, reason="patched workers require fork inheritance"
)

#: Sleep injected per app by the patched executors below.  The patched
#: functions are module-level so worker processes (forked before the
#: sweep, inheriting the monkeypatch and this module in sys.modules)
#: unpickle them by reference.
_SLEEPS = {"sieve": 2.5, "sor": 0.5}

#: Marker-file path for the one-shot worker killer (set by the test
#: before the pool forks; inherited by the children).
_KILL_MARKER = ""


def _sleepy_execute(spec, include_shared=False, lint=False, span_context=None):
    time.sleep(_SLEEPS.get(spec.app, 0.0))
    return _REAL_EXECUTE(spec, include_shared, lint, span_context)


def _killer_execute(spec, include_shared=False, lint=False, span_context=None):
    if spec.app == "sor" and not os.path.exists(_KILL_MARKER):
        with open(_KILL_MARKER, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_EXECUTE(spec, include_shared, lint, span_context)


def _spec(app, **kwargs):
    kwargs.setdefault("model", "switch-on-load")
    kwargs.setdefault("processors", 2)
    kwargs.setdefault("level", 2)
    kwargs.setdefault("scale", "tiny")
    return RunSpec(app=app, **kwargs)


# -- per-run timeout semantics ------------------------------------------------------


@needs_fork
def test_timeout_is_a_per_run_deadline(monkeypatch):
    """Each future's budget runs from *its own* submission: a fast run
    that landed within its deadline is kept even though it is collected
    after a slow earlier run burned the collection clock."""
    monkeypatch.setattr(executor_module, "execute_spec", _sleepy_execute)
    slow, fast = _spec("sieve"), _spec("sor")
    with Engine(workers=2, timeout=1.5) as engine:
        results = engine.run_many([slow, fast], on_error="record")
        assert results[0] is None  # 2.5s sleep > 1.5s budget
        assert results[1] is not None  # landed at ~0.6s, kept at collection
        with pytest.raises(Exception, match="per-run timeout"):
            engine.run(slow)


@needs_fork
def test_timeout_failure_names_the_spec(monkeypatch):
    monkeypatch.setattr(executor_module, "execute_spec", _sleepy_execute)
    slow = _spec("sieve")
    with Engine(workers=2, timeout=0.5) as engine:
        engine.run_many([slow, _spec("sor")], on_error="record")
        with pytest.raises(Exception, match=r"sieve/switch-on-load"):
            engine.run(slow)


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
        assert engine.report()["failed"] == 0


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
        report = engine.report()
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


def test_predicted_tolerates_keys_recorded_mid_loop(monkeypatch):
    """``/healthz`` calls ``predicted()`` while the serve scheduler thread
    records keys; a key added during the loop must not abort it."""
    engine = Engine(workers=1, runlog=False)
    first = RunSpec(app="sieve", model="ideal", processors=2, level=1,
                    scale="tiny")
    late = RunSpec(app="sor", model="ideal", processors=2, level=1,
                   scale="tiny")
    engine._record_predict_key(first)

    class _Prediction:
        def to_dict(self):
            return {"stub": True}

    def _predict_and_record(*key):
        engine._record_predict_key(late)
        return _Prediction()

    monkeypatch.setattr("repro.lint.predict_spec_cached", _predict_and_record)
    assert engine.predicted() == {first.label(): {"stub": True}}
    assert late.label() in engine.predicted()


def test_reading_the_counters_runs_no_prediction(monkeypatch):
    """``summary_line()`` and the ``/metrics`` body read only the
    engine's counters; ``report()`` (``--json``, ``/healthz``) still
    predicts every program the engine has seen."""
    from repro.serve import JobScheduler

    engine = Engine(workers=1, runlog=False)
    engine.run(RunSpec(app="sieve", model="ideal", processors=2, level=1,
                       scale="tiny"))
    scheduler = JobScheduler(engine)
    calls = []

    class _Prediction:
        def to_dict(self):
            return {"stub": True}

    def _count(*key):
        calls.append(key)
        return _Prediction()

    monkeypatch.setattr("repro.lint.predict_spec_cached", _count)
    try:
        engine.summary_line()
        scheduler.metrics_text()
        assert calls == []
        assert engine.report()["predicted"]
        assert len(calls) == 1
    finally:
        scheduler.stop()
