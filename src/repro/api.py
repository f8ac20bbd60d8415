"""The blessed programmatic entry point.

Everything a user of the reproduction needs, with picklable inputs and
outputs and no internal imports::

    import repro

    result = repro.simulate("sieve", model="explicit-switch",
                            processors=4, level=8, scale="small")
    print(result.wall_cycles, result.stats.mean_run_length)

    specs = [repro.RunSpec.create("sor", model=m, processors=2, level=4,
                                  scale="tiny")
             for m in repro.list_models() if m != "ideal"]
    for spec, res in zip(specs, repro.sweep(specs, workers=4)):
        print(spec.label(), res.wall_cycles)

``simulate`` runs one configuration; ``sweep`` fans a list of
:class:`~repro.engine.spec.RunSpec` out over worker processes with
deterministic result ordering and optional on-disk caching.  The old
entry points (``repro.runtime.loader``, ``repro.harness.experiment``)
are gone — importing them raises ``ImportError`` naming the
replacement.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from repro.apps.registry import app_names
from repro.engine.cache import ResultCache
from repro.engine.executor import Engine
from repro.engine.spec import DEFAULT_LATENCY, RunSpec
from repro.machine.models import SwitchModel
from repro.machine.simulator import SimulationResult
from repro.obs.tracer import Tracer

SpecLike = Union[RunSpec, Dict]


def list_apps() -> List[str]:
    """Names of the registered benchmark applications (paper Table 1)."""
    return app_names()


def list_models() -> List[str]:
    """Names of the switch models (paper Figure 1 taxonomy)."""
    return [model.value for model in SwitchModel]


def backends() -> List[Dict]:
    """The registered execution backends (:mod:`repro.jit`).

    One dictionary per backend with ``name``, ``available``, ``default``
    and ``description`` keys — the programmatic twin of
    ``repro-bench --list-backends``.  Backends are bit-identical by
    contract; choosing one changes wall-clock speed only.
    """
    from repro.jit import backend_info

    return backend_info()


def _as_spec(spec: SpecLike) -> RunSpec:
    if isinstance(spec, RunSpec):
        return spec
    if isinstance(spec, dict):
        return RunSpec.create(**spec)
    raise TypeError(f"expected RunSpec or dict, got {type(spec).__name__}")


def simulate(
    app_name: str,
    *,
    model: Union[str, SwitchModel] = SwitchModel.SWITCH_ON_LOAD,
    processors: int = 1,
    level: int = 1,
    scale: str = "small",
    latency: Optional[int] = DEFAULT_LATENCY,
    oracle: bool = False,
    cache: Union[ResultCache, str, None] = None,
    tracer: Optional[Tracer] = None,
    backend: Optional[str] = None,
    **overrides,
) -> SimulationResult:
    """Simulate one registered application on one machine configuration.

    *model* accepts the enum or its string value (``"switch-on-load"``,
    ...); *latency* is the round-trip shared-memory latency in cycles
    (forced to 0 on the ideal machine); remaining keyword arguments are
    :class:`~repro.machine.config.MachineConfig` overrides, accepting
    either keyword spelling (``switch_cost=0``, ``latency_jitter=100``,
    ``cache=CacheConfig(...)``, ...).  Pass *cache* (a directory or
    :class:`~repro.engine.ResultCache`) to persist/reuse the result on
    disk.  Pass *tracer* (e.g. a :class:`~repro.obs.RingTracer`) to
    record cycle-level events; traced runs execute in-process and bypass
    the result cache — a stored payload has no event stream to replay.
    Pass *backend* (``"interpreter"``, ``"compiled"``, ``"auto"``; see
    :func:`backends`) to pick the execution backend — results are
    bit-identical whichever runs.
    """
    if SwitchModel(model) is SwitchModel.IDEAL and latency == DEFAULT_LATENCY:
        latency = 0
    spec = RunSpec.create(
        app_name,
        model=model,
        processors=processors,
        level=level,
        scale=scale,
        latency=latency,
        oracle=oracle,
        backend=backend,
        **overrides,
    )
    if tracer is not None:
        from repro.engine.executor import _build
        from repro.runtime.execution import run_app

        app, program = _build(
            spec.app, spec.total_threads, spec.effective_code_model.value,
            spec.scale,
        )
        return run_app(
            app, spec.machine_config(), program=program, tracer=tracer,
            backend=spec.backend,
        )
    with Engine(workers=1, cache=cache) as engine:
        return engine.run(spec)


def sweep(
    specs: Iterable[SpecLike],
    *,
    workers: int = 1,
    cache: Union[ResultCache, str, None] = None,
    timeout: Optional[float] = None,
    progress=None,
    backend: Optional[str] = None,
) -> List[SimulationResult]:
    """Execute a list of specs (RunSpecs or keyword dictionaries).

    Results come back in input order and are identical whatever the
    worker count; with *cache* set, completed runs persist across calls
    and processes.  Raises on the first failed run (after the whole sweep
    has been collected).  *backend* sets the default execution backend
    for specs that do not name one (see :func:`backends`); the choice
    never affects results or cache hits, only wall-clock speed.
    *timeout* is each run's wall-clock budget in seconds (see
    :class:`~repro.engine.executor.Engine`).
    """
    run_specs = [_as_spec(spec) for spec in specs]
    with Engine(
        workers=workers, cache=cache, timeout=timeout, progress=progress,
        backend=backend,
    ) as engine:
        return engine.run_many(run_specs, on_error="raise")
