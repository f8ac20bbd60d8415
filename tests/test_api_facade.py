"""The repro.api facade and the hard failures over the removed paths."""

import pytest

import repro
from repro.api import list_apps, list_models, simulate, sweep
from repro.engine import RunSpec
from repro.machine import SimulationResult, SwitchModel


def test_list_apps_and_models():
    assert list_apps() == [
        "sieve", "blkmat", "sor", "ugray", "water", "locus", "mp3d"
    ]
    assert "switch-on-load" in list_models()
    assert len(list_models()) == len(SwitchModel)


def test_simulate_basic():
    result = simulate(
        "sieve", model="switch-on-load", processors=2, level=2, scale="tiny"
    )
    assert isinstance(result, SimulationResult)
    assert result.wall_cycles > 0
    assert result.config.num_processors == 2
    assert result.config.threads_per_processor == 2


def test_simulate_accepts_enum_and_alias_overrides():
    result = simulate(
        "sor",
        model=SwitchModel.EXPLICIT_SWITCH,
        processors=1,
        level=2,
        scale="tiny",
        latency=100,
        switch_cost=0,
    )
    assert result.config.model is SwitchModel.EXPLICIT_SWITCH
    assert result.config.latency == 100


def test_simulate_ideal_defaults_to_zero_latency():
    result = simulate("sieve", model="ideal", scale="tiny")
    assert result.config.latency == 0


def test_simulate_uses_disk_cache(tmp_path):
    first = simulate("sieve", model="switch-on-load", processors=2, level=2,
                     scale="tiny", cache=str(tmp_path))
    second = simulate("sieve", model="switch-on-load", processors=2, level=2,
                      scale="tiny", cache=str(tmp_path))
    assert second.wall_cycles == first.wall_cycles
    assert any(tmp_path.rglob("*.json"))


def test_sweep_accepts_dicts_and_specs():
    results = sweep(
        [
            RunSpec(app="sieve", model="switch-on-load", processors=2, level=2,
                    scale="tiny"),
            {"app": "sor", "model": "switch-on-load", "processors": 2,
             "level": 2, "scale": "tiny"},
        ]
    )
    assert len(results) == 2
    assert all(result.wall_cycles > 0 for result in results)


def test_sweep_rejects_garbage():
    with pytest.raises(TypeError):
        sweep([object()])


def test_top_level_exports():
    for name in ("simulate", "sweep", "backends", "list_apps", "list_models",
                 "RunSpec", "Engine", "ResultCache", "SwitchModel",
                 "MachineConfig", "SimulationResult", "SimStats"):
        assert hasattr(repro, name), name


# -- execution backends -------------------------------------------------------


def test_backends_listing():
    infos = repro.backends()
    assert [info["name"] for info in infos] == [
        "interpreter", "compiled", "auto"
    ]
    assert all(info["available"] for info in infos)
    assert [info["name"] for info in infos if info["default"]] == [
        "interpreter"
    ]


def test_simulate_backend_choices_are_bit_identical():
    kwargs = dict(model="switch-on-load", processors=2, level=2, scale="tiny")
    reference = simulate("sieve", **kwargs).stats.to_dict()
    for backend in ("interpreter", "compiled", "auto"):
        assert simulate(
            "sieve", backend=backend, **kwargs
        ).stats.to_dict() == reference, backend
    with pytest.raises(ValueError, match="unknown backend"):
        simulate("sieve", backend="bogus", **kwargs)


def test_engine_counts_executions_per_backend():
    """Every execution is attributed to the backend that ran it — a
    mixed sweep reports both, and the summary line surfaces them."""
    from repro.engine import Engine

    specs = [
        RunSpec(app="sieve", model="switch-on-load", processors=2, level=2,
                scale="tiny"),
        RunSpec(app="sor", model="switch-on-load", processors=2, level=2,
                scale="tiny", backend="interpreter"),
    ]
    with Engine(backend="compiled") as engine:
        engine.run_many(specs)
        report = engine.counters()
        summary = engine.summary_line()
    assert report["executed"] == 2
    assert report["executed_by_backend"] == {"compiled": 1, "interpreter": 1}
    assert "1 compiled" in summary and "1 interpreter" in summary


def test_cache_entries_are_shared_across_backends(tmp_path):
    """A result simulated by one backend answers the other: the cache
    key ignores the backend field (bit-identical contract)."""
    from repro.engine import Engine

    spec = RunSpec(app="sieve", model="switch-on-load", processors=2,
                   level=2, scale="tiny")
    with Engine(cache=str(tmp_path), backend="interpreter") as warm:
        first = warm.run(spec)
        assert warm.counters()["executed_by_backend"] == {"interpreter": 1}
    with Engine(cache=str(tmp_path), backend="compiled") as engine:
        second = engine.run(spec)
        report = engine.counters()
    assert report["executed"] == 0 and report["cached"] == 1
    assert second.stats.to_dict() == first.stats.to_dict()


# -- removed modules ----------------------------------------------------------


def test_loader_module_is_removed():
    """The one-release DeprecationWarning shim is now a hard failure
    that names the replacements."""
    with pytest.raises(ImportError, match=r"repro\.runtime\.execution"):
        import repro.runtime.loader  # noqa: F401


def test_experiment_module_is_removed():
    with pytest.raises(ImportError, match=r"repro\.harness"):
        import repro.harness.experiment  # noqa: F401


def test_canonical_imports_do_not_warn(recwarn):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.harness import ExperimentContext  # noqa: F401
        from repro.runtime import run_app  # noqa: F401
        from repro.api import simulate  # noqa: F401
