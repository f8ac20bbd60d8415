"""Parallel execution: equivalence with serial, ordering, failure handling."""

import pytest

from repro.engine import Engine, RunSpec
from repro.harness import ExperimentContext
from repro.harness import tables as T
from repro.harness.ablations import forced_interval_study
from repro.machine import SwitchModel
from repro.machine.simulator import SimulationTimeout

#: A miniature Table 2 sweep: every app at (switch-on-load, P=2, M=2).
APPS = ("sieve", "sor", "blkmat")


def _sweep_specs():
    return [
        RunSpec(app=app, model="switch-on-load", processors=2, level=2,
                scale="tiny")
        for app in APPS
    ]


def test_workers2_matches_serial():
    specs = _sweep_specs()
    with Engine(workers=1) as serial_engine:
        serial = serial_engine.run_many(specs)
    with Engine(workers=2) as parallel_engine:
        parallel = parallel_engine.run_many(specs)
    for spec, serial_result, parallel_result in zip(specs, serial, parallel):
        assert serial_result.wall_cycles == parallel_result.wall_cycles, spec
        assert serial_result.stats.to_dict() == parallel_result.stats.to_dict(), spec


def test_results_follow_input_order_and_dedupe():
    specs = _sweep_specs()
    doubled = specs + list(reversed(specs))  # duplicates in shuffled order
    with Engine(workers=2) as engine:
        results = engine.run_many(doubled)
        report = engine.report()
    assert report["executed"] == len(specs)  # duplicates executed once
    for spec, result in zip(doubled, results):
        assert result.config.num_processors == spec.processors
        assert result is results[doubled.index(spec)]  # same memo object


def test_duplicate_specs_write_cache_once(tmp_path):
    """N copies of one spec in a sweep execute once and persist once."""
    from repro.engine import ResultCache

    class CountingCache(ResultCache):
        def __init__(self, root):
            super().__init__(root)
            self.puts = 0

        def put(self, key, payload):
            self.puts += 1
            super().put(key, payload)

    spec = RunSpec(app="sieve", model="switch-on-load", processors=2,
                   level=2, scale="tiny")
    copies = [RunSpec.from_dict(spec.to_dict()) for _ in range(4)]
    cache = CountingCache(tmp_path / "cache")
    with Engine(workers=2, cache=cache) as engine:
        results = engine.run_many(copies)
        report = engine.report()
    assert cache.puts == 1
    assert report["executed"] == 1
    assert report["deduped"] == 3
    assert len(results) == 4
    assert all(result is results[0] for result in results)


def test_run_many_call_level_overrides_restore_engine_settings():
    events = []
    with Engine(workers=1) as engine:
        engine.run_many(_sweep_specs()[:1], progress=events.append)
        assert engine.progress is None  # restored after the call
    assert [event["source"] for event in events] == ["run"]


def test_parallel_table2_rendering_matches_serial():
    # The forced-interval study runs in two waves: its capped intervals
    # through the pool, then the livelock probe in-process with a budget
    # taken from them.  Both must render what the serial run does.
    studies = (T.table2, forced_interval_study)
    with ExperimentContext(scale="tiny", processors=2, max_level=4) as serial_ctx:
        serial = [study(serial_ctx) for study in studies]
    with ExperimentContext(
        scale="tiny", processors=2, max_level=4, workers=2
    ) as parallel_ctx:
        parallel = [study(parallel_ctx) for study in studies]
    assert parallel == serial  # (text, data) per study


def test_prefetch_is_noop_on_serial_context():
    with ExperimentContext(scale="tiny", processors=2) as ctx:
        ctx.prefetch(_sweep_specs())
        assert ctx.engine.report()["completed"] == 0


def test_failures_are_recorded_and_reraised():
    bad = RunSpec(app="sor", model="switch-on-load", processors=2, level=2,
                  scale="tiny", overrides=(("max_cycles", 100),))
    good = _sweep_specs()[0]
    with Engine(workers=2) as engine:
        results = engine.run_many([good, bad], on_error="record")
        assert results[0] is not None and results[1] is None
        with pytest.raises(SimulationTimeout):
            engine.run(bad)  # memoised failure re-raises per spec
        with pytest.raises(SimulationTimeout):
            engine.run_many([good, bad], on_error="raise")


def test_serial_fallback_when_pool_unavailable(monkeypatch):
    import concurrent.futures

    def broken_pool(*args, **kwargs):
        raise OSError("no processes in this sandbox")

    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", broken_pool
    )
    specs = _sweep_specs()
    with Engine(workers=4) as engine:
        results = engine.run_many(specs)
        assert engine._pool_broken
    assert [result.wall_cycles for result in results] == [
        result.wall_cycles for result in Engine().run_many(specs)
    ]


def test_mt_levels_parallel_equals_serial():
    with ExperimentContext(scale="tiny", processors=2, max_level=6) as serial_ctx:
        serial_levels = serial_ctx.mt_levels(
            "sieve", SwitchModel.SWITCH_ON_LOAD, targets=(0.2, 0.4)
        )
    with ExperimentContext(
        scale="tiny", processors=2, max_level=6, workers=2
    ) as parallel_ctx:
        parallel_levels = parallel_ctx.mt_levels(
            "sieve", SwitchModel.SWITCH_ON_LOAD, targets=(0.2, 0.4)
        )
    assert parallel_levels == serial_levels
