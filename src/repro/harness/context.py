"""Experiment context: shared configuration on top of the engine.

Every table/figure generator works through an :class:`ExperimentContext`,
which pins the scale (problem sizes), the machine defaults (200-cycle
latency, experiment processor count) and delegates every simulation to a
:class:`repro.engine.Engine` — which memoises results in-process,
optionally persists them to the on-disk cache, and fans prefetched
sweeps out across worker processes.

Parallelism never changes results: generators *prefetch* the spec grid
they are about to consume (filling the engine memo concurrently) and
then read the same memoised values the serial path would compute, in the
same order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.apps.registry import ALL_APPS, app_names, get_app
from repro.engine.executor import Engine
from repro.engine.spec import RunSpec
from repro.machine.models import SwitchModel
from repro.machine.simulator import SimulationResult
from repro.harness.sizes import scale_sizes


class ExperimentContext:
    """Scale + machine defaults + engine-backed simulation results.

    Every run goes through :meth:`run` to :attr:`engine`; pass an
    ``Engine(check=True)`` as *engine* to lint and check each one."""

    def __init__(
        self,
        scale: str = "small",
        latency: int = 200,
        processors: int = 2,
        max_level: int = 24,
        *,
        workers: int = 1,
        cache=None,
        engine: Optional[Engine] = None,
        faults=None,
        apps: Optional[Iterable[str]] = None,
    ):
        self.scale = scale
        self.sizes = scale_sizes(scale)
        #: Application names every table/figure iterates (``None`` =
        #: the full Table 1 roster).  Accepts ``synth:`` scheme names,
        #: so generated kernels slot into any experiment.
        self._apps = list(apps) if apps is not None else None
        self.latency = latency
        #: Processor count used by the multithreading-level tables.
        self.processors = processors
        self.max_level = max_level
        #: Fault-injection scenario (a :class:`repro.faults.FaultConfig`)
        #: applied to every non-ideal machine this context builds; the
        #: IDEAL baseline keeps the plain machine so efficiency stays
        #: measured against the paper's reference.
        self.faults = faults
        #: The execution backbone.  *cache* may be a
        #: :class:`repro.engine.ResultCache` or a directory path; ``None``
        #: keeps everything in-process (hermetic — the default for tests).
        self.engine = engine if engine is not None else Engine(
            workers=workers, cache=cache
        )
        self._t1: Dict[str, int] = {}

    @property
    def workers(self) -> int:
        return self.engine.workers

    def close(self) -> None:
        self.engine.close()

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- building blocks ---------------------------------------------------------

    def apps(self):
        if self._apps is not None:
            return [get_app(name) for name in self._apps]
        return list(ALL_APPS)

    def app_names(self):
        if self._apps is not None:
            return list(self._apps)
        return app_names()

    def size_of(self, app_name: str) -> Dict:
        # Apps outside the scale tables (synth: kernels) take no size
        # keywords — same contract as repro.harness.sizes.sizes_for.
        return dict(self.sizes.get(app_name, {}))

    def spec(
        self,
        app_name: str,
        model: SwitchModel,
        processors: int,
        level: int,
        oracle: bool = False,
        latency: Optional[int] = None,
        code_model: Optional[SwitchModel] = None,
        **config_extra,
    ) -> RunSpec:
        """The :class:`RunSpec` for one configuration under this context's
        defaults (the memo/cache key covers latency and every override)."""
        effective_latency = (
            latency
            if latency is not None
            else (0 if SwitchModel(model) is SwitchModel.IDEAL else self.latency)
        )
        if (
            self.faults is not None
            and "faults" not in config_extra
            and SwitchModel(model) is not SwitchModel.IDEAL
        ):
            config_extra["faults"] = self.faults
        return RunSpec(
            app=app_name,
            model=model,
            processors=processors,
            level=level,
            scale=self.scale,
            latency=effective_latency,
            oracle=oracle,
            code_model=code_model,
            overrides=tuple(sorted(config_extra.items())),
        )

    # -- cached simulation ---------------------------------------------------------

    def run(
        self,
        app_name: str,
        model: SwitchModel,
        processors: int,
        level: int,
        oracle: bool = False,
        latency: Optional[int] = None,
        **config_extra,
    ) -> SimulationResult:
        """Simulate one configuration (memoised by the engine)."""
        return self.engine.run(self.spec(
            app_name, model, processors, level,
            oracle=oracle, latency=latency, **config_extra,
        ))

    def prefetch(self, specs: Iterable[RunSpec]) -> None:
        """Warm the engine memo for an upcoming sweep.

        With ``workers > 1`` the specs execute across the worker pool;
        failures are recorded (not raised) so the consuming loop hits
        them exactly where the serial path would.  A serial engine skips
        the warm-up entirely — the consuming loop's own calls do the
        work, keeping the serial path unchanged.
        """
        specs = list(specs)
        if self.workers > 1 and len(specs) > 1:
            self.engine.run_many(specs, on_error="record")

    def t1(self, app_name: str) -> int:
        """Single-processor zero-latency cycles (efficiency baseline)."""
        if app_name not in self._t1:
            result = self.run(app_name, SwitchModel.IDEAL, 1, 1)
            self._t1[app_name] = result.wall_cycles
        return self._t1[app_name]

    def t1_specs(self) -> list:
        """Specs of every application's efficiency baseline (prefetchable)."""
        return [
            self.spec(spec.name, SwitchModel.IDEAL, 1, 1) for spec in self.apps()
        ]

    def reorganised_t1(self, app_name: str) -> int:
        """Single-processor zero-latency cycles of the *grouped* code
        (Table 5's reorganisation-penalty numerator)."""
        return self.run(
            app_name, SwitchModel.IDEAL, 1, 1,
            code_model=SwitchModel.EXPLICIT_SWITCH,
        ).wall_cycles

    def efficiency(self, result: SimulationResult, app_name: str) -> float:
        return result.efficiency(self.t1(app_name))

    # -- multithreading-level search ----------------------------------------------

    def mt_levels(
        self,
        app_name: str,
        model: SwitchModel,
        targets=(0.5, 0.6, 0.7, 0.8, 0.9),
        oracle: bool = False,
    ) -> Dict[float, Optional[int]]:
        """Threads/processor needed for each efficiency target
        (``None`` = unreachable at this problem size).

        The search is adaptive (stop once every target is met or
        efficiency plateaus for three levels), so with ``workers > 1`` it
        speculatively prefetches one *wave* of levels at a time; the
        stopping rule is then applied level-by-level in ascending order,
        so the returned levels are identical to the serial search — the
        wave only overlaps the simulations.
        """
        needed: Dict[float, Optional[int]] = {t: None for t in targets}
        best = -1.0
        stale = 0
        level = 1
        while level <= self.max_level:
            wave_end = (
                min(level + self.workers - 1, self.max_level)
                if self.workers > 1
                else level
            )
            self.prefetch(
                self.spec(app_name, model, self.processors, wave_level, oracle=oracle)
                for wave_level in range(level, wave_end + 1)
            )
            for wave_level in range(level, wave_end + 1):
                result = self.run(
                    app_name, model, self.processors, wave_level, oracle=oracle
                )
                efficiency = self.efficiency(result, app_name)
                for target in targets:
                    if needed[target] is None and efficiency >= target:
                        needed[target] = wave_level
                if all(value is not None for value in needed.values()):
                    return needed
                if efficiency > best + 1e-9:
                    best = efficiency
                    stale = 0
                else:
                    stale += 1
                    if stale >= 3:
                        return needed
            level = wave_end + 1
        return needed
