"""Differential validation of the static predictor against the machine.

:mod:`repro.lint.predict` promises *bounds*: every fault-free simulation
of a program must land inside the predicted run-length window, below the
predicted switch ceiling and the utilization bound (which also bounds
efficiency).  :func:`prediction_violations` turns any escape into a
``predict-*`` violation.

Soundness caveats the checks encode:

* ``predict-run-min`` only binds on lint-clean code: the lower bound
  assumes the must-switch classification is exact, which warnings (e.g.
  ungrouped code under an explicit-switch model) explicitly void.
* ``predict-run-max`` / ``predict-switch-max`` are skipped when the
  static analysis reported ``None`` (statically unbounded).
* Only complete runs count — a timed-out or faulted simulation has no
  meaningful run-length census.

:func:`validate_apps` gates the 7 × 8 application grid behind
``repro-analyze --validate``, resolving it through the engine.
Generated kernels are checked by the differential fuzzer, which applies
:func:`prediction_violations` to every fault-free grid it runs
(:mod:`repro.synth.fuzz`), and shrinks, bundles and self-tests
``predict-*`` failures like any other invariant.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.check import Violation
from repro.lint import lint_spec, predict_spec
from repro.lint.predict import ModelPrediction
from repro.machine.models import SwitchModel
from repro.machine.simulator import SimulationResult

EPSILON = 1e-9

#: Grid order, every switch model.
ALL_MODELS = tuple(model.value for model in SwitchModel)


def prediction_violations(
    prediction: ModelPrediction,
    result: SimulationResult,
    t1: Optional[int] = None,
    lint_clean: bool = True,
    where: str = "",
) -> List[Violation]:
    """Every way *result* escapes *prediction*'s static bounds.

    Returns an empty list for incomplete runs (not all threads halted):
    bounds quantify over finished executions only.
    """
    stats = result.stats
    config = result.config
    if stats.halted_threads != config.total_threads:
        return []
    prefix = f"{where}: " if where else ""
    violations: List[Violation] = []
    runs = stats.run_lengths
    measured_max = max(runs) if runs else None
    measured_min = min(runs) if runs else None
    if (
        prediction.run_max is not None
        and measured_max is not None
        and measured_max > prediction.run_max
    ):
        violations.append(Violation(
            "predict-run-max",
            f"{prefix}measured run length {measured_max} exceeds the "
            f"static ceiling {prediction.run_max}",
        ))
    if (
        lint_clean
        and measured_min is not None
        and measured_min < prediction.run_min
    ):
        violations.append(Violation(
            "predict-run-min",
            f"{prefix}measured run length {measured_min} undercuts the "
            f"static floor {prediction.run_min}",
        ))
    if (
        prediction.switch_max is not None
        and stats.switches > prediction.switch_max
    ):
        violations.append(Violation(
            "predict-switch-max",
            f"{prefix}measured {stats.switches} switches exceed the "
            f"static ceiling {prediction.switch_max}",
        ))
    if stats.switches < prediction.switch_min:
        violations.append(Violation(
            "predict-switch-min",
            f"{prefix}measured {stats.switches} switches undercut the "
            f"static floor {prediction.switch_min}",
        ))
    if result.wall_cycles:
        utilization = stats.busy_cycles / (
            result.wall_cycles * config.num_processors
        )
        if utilization > prediction.utilization_bound + EPSILON:
            violations.append(Violation(
                "predict-utilization",
                f"{prefix}measured utilization {utilization:.4f} exceeds "
                f"the static bound {prediction.utilization_bound:.4f}",
            ))
    if t1 is not None:
        efficiency = result.efficiency(t1)
        if efficiency > prediction.utilization_bound + EPSILON:
            violations.append(Violation(
                "predict-efficiency",
                f"{prefix}measured efficiency {efficiency:.4f} exceeds "
                f"the static bound {prediction.utilization_bound:.4f}",
            ))
    return violations


def _as_dicts(violations: List[Violation]) -> List[Dict]:
    return [{"invariant": v.invariant, "message": v.message} for v in violations]


def validate_apps(
    apps: Optional[Iterable[str]] = None,
    models: Optional[Iterable[str]] = None,
    scale: str = "tiny",
    processors: int = 2,
    level: int = 2,
    latency: int = 200,
) -> Dict:
    """Differential soundness over the benchmark grid.

    Every (application, model) cell, and each application's
    single-processor baseline, resolves as a :class:`RunSpec` through
    one :class:`~repro.engine.executor.Engine`.  A cell's bounds come
    from :func:`~repro.lint.predict_spec` and its lint cleanliness from
    :func:`~repro.lint.lint_spec`, both over the engine's build of the
    program it ran.  The returned summary lists every ``predict-*``
    escape (an empty list is the gate's green light) and keeps the
    per-cell numbers for the predicted-vs-measured tables.
    """
    from repro.apps.registry import app_names
    from repro.engine.executor import Engine
    from repro.engine.spec import RunSpec

    names = list(apps) if apps is not None else app_names()
    wanted = [
        SwitchModel.parse(m)
        for m in (models if models is not None else ALL_MODELS)
    ]
    baselines = [
        RunSpec(app=name, model=SwitchModel.IDEAL, scale=scale) for name in names
    ]
    grid = [
        RunSpec(
            app=name,
            model=model,
            processors=processors,
            level=level,
            scale=scale,
            latency=0 if model is SwitchModel.IDEAL else latency,
        )
        for name in names
        for model in wanted
    ]
    with Engine() as engine:
        results = engine.run_many(baselines + grid)
    t1 = {name: result.wall_cycles for name, result in zip(names, results)}
    rows: List[Dict] = []
    violations: List[Violation] = []
    for spec, result in zip(grid, results[len(baselines):]):
        lint_clean = not lint_spec(spec).diagnostics
        prediction = predict_spec(spec)
        found = prediction_violations(
            prediction,
            result,
            t1=t1[spec.app],
            lint_clean=lint_clean,
            where=f"{spec.app}/{spec.model}",
        )
        violations.extend(found)
        stats = result.stats
        runs = stats.run_lengths
        rows.append({
            "app": spec.app,
            "model": spec.model,
            "lint_clean": lint_clean,
            "predicted": prediction.to_dict(),
            "measured": {
                "run_min": min(runs) if runs else None,
                "run_max": max(runs) if runs else None,
                "mean_run_length": round(stats.mean_run_length, 2),
                "switches": stats.switches,
                "utilization": round(
                    stats.busy_cycles / (result.wall_cycles * processors)
                    if result.wall_cycles else 0.0,
                    6,
                ),
                "wall_cycles": result.wall_cycles,
                "efficiency": round(result.efficiency(t1[spec.app]), 6),
            },
            "violations": _as_dicts(found),
        })
    return {
        "scale": scale,
        "processors": processors,
        "level": level,
        "latency": latency,
        "cells": rows,
        "violations": _as_dicts(violations),
        "ok": not violations,
    }
