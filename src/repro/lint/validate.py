"""Differential validation of the static predictor against the machine.

:mod:`repro.lint.predict` promises *bounds*: every fault-free simulation
of a program must land inside the predicted run-length window, below the
predicted switch ceiling and utilization/efficiency bounds.  This module
closes the loop the same way :mod:`repro.synth.fuzz` does for functional
invariants — run the real simulator, compare, and treat any escape as a
``predict-*`` violation.

Soundness caveats the checks encode:

* ``predict-run-min`` only binds on lint-clean code: the lower bound
  assumes the must-switch classification is exact, which warnings (e.g.
  ungrouped code under an explicit-switch model) explicitly void.
* ``predict-run-max`` / ``predict-switch-max`` are skipped when the
  static analysis reported ``None`` (statically unbounded).
* Only complete runs count — a timed-out or faulted simulation has no
  meaningful run-length census.

Failing synthetic seeds are shrunk with the fuzzer's segment-level
ddmin (:func:`repro.synth.generator.shrink_segments`) and written as the
same JSON repro bundles ``repro-fuzz`` produces, so a predictor bug
arrives as a minimal kernel plus the first violated invariant.

:func:`run_selftest` proves the harness has teeth: it corrupts the
predictor's output three ways (a run-length ceiling of 1, a switch
ceiling of 0, a near-zero utilization bound) and asserts each unsound
table is caught *and* shrunk.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.check import Violation
from repro.compiler.passes import prepare_for_model
from repro.machine.config import MachineConfig
from repro.machine.models import SwitchModel
from repro.machine.simulator import SimulationResult
from repro.runtime.execution import run_app
from repro.lint.predict import ModelPrediction, predict_prepared

EPSILON = 1e-9

#: Grid order, every switch model.
ALL_MODELS = tuple(model.value for model in SwitchModel)


class SelfTestError(AssertionError):
    """The validator failed to catch (or shrink) an injected bug."""


#: Hook corrupting a prediction before it is checked — the self-test's
#: stand-in for a predictor bug.
Doctor = Callable[[ModelPrediction], ModelPrediction]


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
        if efficiency > prediction.efficiency_bound + EPSILON:
            violations.append(Violation(
                "predict-efficiency",
                f"{prefix}measured efficiency {efficiency:.4f} exceeds "
                f"the static bound {prediction.efficiency_bound:.4f}",
            ))
    return violations


# ---------------------------------------------------------------------------
# one (program, model) cell
# ---------------------------------------------------------------------------


def _model_config(
    model: SwitchModel, processors: int, level: int, latency: int
) -> MachineConfig:
    return MachineConfig.create(
        model=model,
        processors=processors,
        level=level,
        latency=0 if model is SwitchModel.IDEAL else latency,
    )


def check_cell(
    app,
    model: "SwitchModel | str",
    processors: int = 2,
    level: int = 2,
    latency: int = 200,
    t1: Optional[int] = None,
    doctor: Optional[Doctor] = None,
    where: str = "",
) -> Dict:
    """Predict + simulate one (built app, model) cell and compare.

    Returns a JSON-native record carrying both sides of the comparison
    (for the predicted-vs-measured tables) plus any violations.
    """
    from repro.lint import lint_pair

    resolved = SwitchModel.parse(model)
    prepared = prepare_for_model(app.program, resolved)
    config = _model_config(resolved, processors, level, latency)
    prediction = predict_prepared(
        prepared,
        resolved,
        latency=config.latency,
        processors=processors,
        level=level,
        forced_interval=config.forced_switch_interval,
    )
    if doctor is not None:
        prediction = doctor(prediction)
    lint_clean = not lint_pair(app.program, prepared, resolved).diagnostics
    result = run_app(app, config, program=prepared, check=False)
    violations = prediction_violations(
        prediction,
        result,
        t1=t1,
        lint_clean=lint_clean,
        where=where or f"{app.program.name}/{resolved.value}",
    )
    stats = result.stats
    runs = stats.run_lengths
    measured: Dict = {
        "run_min": min(runs) if runs else None,
        "run_max": max(runs) if runs else None,
        "mean_run_length": round(stats.mean_run_length, 2),
        "switches": stats.switches,
        "utilization": round(
            stats.busy_cycles / (result.wall_cycles * config.num_processors)
            if result.wall_cycles else 0.0,
            6,
        ),
        "wall_cycles": result.wall_cycles,
    }
    if t1 is not None:
        measured["efficiency"] = round(result.efficiency(t1), 6)
    return {
        "model": resolved.value,
        "lint_clean": lint_clean,
        "predicted": prediction.to_dict(),
        "measured": measured,
        "violations": [
            {"invariant": v.invariant, "message": v.message}
            for v in violations
        ],
        "_violations": violations,  # live objects, stripped by callers
    }


# ---------------------------------------------------------------------------
# the seven applications
# ---------------------------------------------------------------------------


def validate_apps(
    apps: Optional[Iterable[str]] = None,
    models: Optional[Iterable[str]] = None,
    scale: str = "tiny",
    processors: int = 2,
    level: int = 2,
    latency: int = 200,
) -> Dict:
    """Differential soundness over the benchmark grid.

    Every (application, model) cell is predicted and simulated; the
    returned summary lists every ``predict-*`` escape (an empty list is
    the gate's green light) and keeps the per-cell numbers for the
    predicted-vs-measured tables.
    """
    from repro.analysis.efficiency import single_thread_cycles
    from repro.apps.registry import app_names, get_app
    from repro.harness.sizes import sizes_for

    names = list(apps) if apps is not None else app_names()
    wanted = [
        SwitchModel.parse(m).value
        for m in (models if models is not None else ALL_MODELS)
    ]
    rows: List[Dict] = []
    violations: List[Violation] = []
    for name in names:
        spec = get_app(name)
        size = sizes_for(spec.name, scale)
        app = spec.build(processors * level, **size)
        t1 = single_thread_cycles(spec, size)
        for model in wanted:
            cell = check_cell(
                app,
                model,
                processors=processors,
                level=level,
                latency=latency,
                t1=t1,
                where=f"{name}/{model}",
            )
            violations.extend(cell.pop("_violations"))
            cell["app"] = name
            rows.append(cell)
    return {
        "scale": scale,
        "processors": processors,
        "level": level,
        "latency": latency,
        "cells": rows,
        "violations": [
            {"invariant": v.invariant, "message": v.message}
            for v in violations
        ],
        "ok": not violations,
    }


# ---------------------------------------------------------------------------
# synthetic kernels — reuse the fuzzer's plans, shrinking and bundles
# ---------------------------------------------------------------------------


def _plan_violations(
    plan: Dict,
    options,
    doctor: Optional[Doctor] = None,
) -> List[Violation]:
    """Every predict-* escape of *plan* across the model grid.

    Generated kernels are lint-clean by construction (the fuzz gate
    enforces it per seed), so the run-length floor binds everywhere.
    """
    from repro.synth.generator import build_synth_app

    app = build_synth_app(plan, options.nthreads)
    violations: List[Violation] = []
    for model in options.models:
        resolved = SwitchModel(model)
        prepared = prepare_for_model(app.program, resolved)
        config = _model_config(
            resolved, options.processors, options.level, options.latency
        )
        prediction = predict_prepared(
            prepared,
            resolved,
            latency=config.latency,
            processors=options.processors,
            level=options.level,
            forced_interval=config.forced_switch_interval,
        )
        if doctor is not None:
            prediction = doctor(prediction)
        try:
            result = run_app(app, config, program=prepared, check=False)
        except Exception as error:  # noqa: BLE001 - recorded, not raised
            violations.append(Violation(
                "run-error",
                f"{model}: {type(error).__name__}: {error}",
            ))
            continue
        violations.extend(prediction_violations(
            prediction, result, lint_clean=True, where=model
        ))
    return violations


def shrink_predict_plan(
    plan: Dict,
    invariant: str,
    options,
    doctor: Optional[Doctor] = None,
) -> Dict:
    """Minimal plan (ddmin over top-level segments, exactly the fuzzer's
    strategy) still violating *invariant*."""
    from repro.synth.generator import shrink_segments

    def still_fails(candidate: Dict) -> bool:
        return any(
            v.invariant == invariant
            for v in _plan_violations(candidate, options, doctor)
        )

    return shrink_segments(plan, still_fails)


def validate_synth_seed(
    seed: int,
    preset: str = "default",
    options=None,
    doctor: Optional[Doctor] = None,
):
    """One differential predictor experiment for one generated kernel;
    returns a :class:`repro.synth.fuzz.SeedOutcome` whose bundle (on
    failure) replays through the standard fuzz tooling."""
    from repro.synth.config import get_preset
    from repro.synth.fuzz import FuzzOptions, SeedOutcome, make_bundle
    from repro.synth.generator import (
        build_synth_app,
        generate_plan,
        program_fingerprint,
    )
    from repro.synth.registry import format_synth_name

    options = options or FuzzOptions()
    plan = generate_plan(seed, get_preset(preset))
    app = build_synth_app(plan, options.nthreads)
    violations = _plan_violations(plan, options, doctor)
    outcome = SeedOutcome(
        seed=seed,
        preset=preset,
        name=format_synth_name(seed, preset),
        fingerprint=program_fingerprint(app.program),
        runs=len(options.models),
        violations=violations,
    )
    if violations:
        shrunk = None
        if options.shrink:
            shrunk = shrink_predict_plan(
                plan, violations[0].invariant, options, doctor
            )
        outcome.bundle = make_bundle(outcome, plan, options, shrunk)
    return outcome


def validate_synth_seeds(
    seeds: Iterable[int],
    preset: str = "default",
    options=None,
    bundle_dir: Union[str, Path, None] = None,
    progress: Optional[Callable] = None,
) -> Dict:
    """Differential predictor campaign over generated kernels."""
    from repro.synth.fuzz import FuzzOptions, write_bundle

    options = options or FuzzOptions()
    outcomes = []
    bundles: List[str] = []
    for seed in seeds:
        outcome = validate_synth_seed(seed, preset=preset, options=options)
        outcomes.append(outcome)
        if outcome.bundle is not None and bundle_dir is not None:
            bundles.append(str(write_bundle(outcome.bundle, bundle_dir)))
        if progress is not None:
            progress(outcome)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    return {
        "preset": preset,
        "options": options.to_dict(),
        "seeds": len(outcomes),
        "runs": sum(outcome.runs for outcome in outcomes),
        "failures": len(failures),
        "bundles": bundles,
        "outcomes": [outcome.to_dict() for outcome in outcomes],
        "ok": not failures,
    }


# ---------------------------------------------------------------------------
# self-test — prove an unsound predictor is caught and shrunk
# ---------------------------------------------------------------------------

def _doctor_run_max(prediction: ModelPrediction) -> ModelPrediction:
    return dataclasses.replace(prediction, run_max=1)


def _doctor_switch_max(prediction: ModelPrediction) -> ModelPrediction:
    return dataclasses.replace(prediction, switch_max=0)


def _doctor_utilization(prediction: ModelPrediction) -> ModelPrediction:
    return dataclasses.replace(prediction, utilization_bound=1e-4)


DOCTORS: Dict[str, Doctor] = {
    "run-max-unsound": _doctor_run_max,
    "switch-max-unsound": _doctor_switch_max,
    "utilization-unsound": _doctor_utilization,
}

_EXPECTED_INVARIANT = {
    "run-max-unsound": "predict-run-max",
    "switch-max-unsound": "predict-switch-max",
    "utilization-unsound": "predict-utilization",
}


def run_selftest(seed: int = 3, preset: str = "quick", options=None) -> Dict:
    """Corrupt the predictor's output three ways; assert each unsound
    cost table is caught by the right ``predict-*`` invariant and shrunk
    to a no-larger reproducer.  Raises :class:`SelfTestError` on a miss."""
    from repro.synth.fuzz import FuzzOptions
    from repro.synth.generator import generate_plan, plan_segment_ids
    from repro.synth.config import get_preset

    options = options or FuzzOptions()
    plan = generate_plan(seed, get_preset(preset))
    original_segments = len(plan_segment_ids(plan))
    if _plan_violations(plan, options):
        raise SelfTestError(
            "victim seed violates the honest predictor; "
            "pick a clean seed for the self-test"
        )
    report: Dict[str, Dict] = {}
    problems: List[str] = []
    for name, doctor in sorted(DOCTORS.items()):
        expected = _EXPECTED_INVARIANT[name]
        violations = _plan_violations(plan, options, doctor)
        caught = [v for v in violations if v.invariant == expected]
        if not caught:
            problems.append(
                f"{name}: unsound bound produced no {expected} violation"
            )
            report[name] = {"caught": False}
            continue
        shrunk = shrink_predict_plan(plan, expected, options, doctor)
        shrunk_segments = len(plan_segment_ids(shrunk))
        if shrunk_segments > original_segments:
            problems.append(
                f"{name}: shrink grew the plan "
                f"({original_segments} -> {shrunk_segments} segments)"
            )
        report[name] = {
            "caught": True,
            "invariant": expected,
            "violations": len(caught),
            "original_segments": original_segments,
            "shrunk_segments": shrunk_segments,
        }
    if problems:
        raise SelfTestError(
            "predictor validation self-test failed:\n  - "
            + "\n  - ".join(problems)
        )
    return report
