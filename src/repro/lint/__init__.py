"""Static analysis of ISA programs and compiler-pass invariants.

The linter verifies — without simulating a single cycle — that a
finalized :class:`~repro.isa.program.Program` is well-formed and that the
Section 5.1 post-processor upheld the paper's contracts:

* ``isa-*`` rules: operand ranges/kinds, arity hygiene, branch targets,
  reachability of a HALT, unreachable code;
* ``df-*`` rules: use-before-def and dead writes via bitset dataflow
  over the CFG (:mod:`repro.lint.dataflow`);
* ``paper-*`` rules: grouped code closes every shared-load group with a
  SWITCH before a use, use-model code carries no SWITCH, grouping is a
  dependence-preserving permutation per block, and shared stores target
  thread-unique or sync-guarded addresses.

Entry points:

* :func:`lint_program` — one program (optionally as *prepared* code for
  a model, enabling the model-specific rules);
* :func:`lint_pair` — original + prepared code, adding the permutation
  cross-check;
* :func:`lint_app_model` / :func:`lint_spec` — build a benchmark app,
  lower it for a model, and lint the pair (``lint_spec_cached`` memoises
  per process); ``Engine(check=True)`` gates every spec it resolves on
  :func:`lint_spec`;
* the ``repro-lint`` CLI (``python -m repro.lint``).

The rules themselves are proven live by seeded mutation self-tests
(:mod:`repro.lint.mutations`): each rule must fire on a deliberately
broken program and stay silent on the clean one.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, List, Optional, Union

from repro.isa.program import Program
from repro.machine.models import SwitchModel
from repro.lint.diagnostics import (
    Diagnostic,
    LintError,
    LintReport,
    Rule,
    Severity,
    apply_rule_filters,
)
from repro.lint.predict import (
    ModelPrediction,
    Prediction,
    ProgramAnalysis,
    call_graph,
    predict_prepared,
    predict_program,
)
from repro.lint.rules import RULES, check_transform, run_rules

__all__ = [
    "Diagnostic",
    "LintError",
    "LintReport",
    "ModelPrediction",
    "Prediction",
    "ProgramAnalysis",
    "Rule",
    "RULES",
    "Severity",
    "apply_rule_filters",
    "call_graph",
    "lint_program",
    "lint_pair",
    "lint_app_model",
    "lint_spec",
    "lint_spec_cached",
    "lint_matrix",
    "predict_prepared",
    "predict_program",
    "predict_spec_cached",
]


def lint_program(
    program: Program,
    model: Union[str, SwitchModel, None] = None,
    prepared: bool = False,
) -> LintReport:
    """Lint one finalized program.

    With *prepared* true, *program* is treated as the output of
    :func:`repro.compiler.passes.prepare_for_model` for *model*, which
    enables the model-specific SWITCH-discipline rules.
    """
    resolved = SwitchModel.parse(model) if model is not None else None
    report = LintReport(
        program.name, resolved.value if resolved else None
    )
    return run_rules(program, resolved, report, prepared=prepared)


def lint_pair(
    original: Program,
    prepared: Program,
    model: Union[str, SwitchModel],
) -> LintReport:
    """Lint *prepared* (the code the machine runs) and cross-check it
    against *original* with the grouping-permutation rule."""
    resolved = SwitchModel.parse(model)
    report = LintReport(prepared.name, resolved.value)
    run_rules(prepared, resolved, report, prepared=True)
    if resolved.wants_grouped_code and report.ok:
        # The permutation check needs trustworthy CFGs on both sides;
        # existing errors mean the prepared code is already condemned.
        check_transform(original, prepared, resolved, report)
    return report


def lint_app_model(
    app: str,
    model: Union[str, SwitchModel],
    nthreads: int = 2,
    scale: str = "tiny",
) -> LintReport:
    """Build benchmark *app* at *scale*, lower it for *model*, and lint
    original + prepared as a pair.  The program comes from the engine's
    build cache, so linting what the engine ran builds nothing."""
    from repro.engine.executor import _build

    resolved = SwitchModel.parse(model)
    built, prepared = _build(app, nthreads, resolved.value, scale)
    return lint_pair(built.program, prepared, resolved)


@functools.lru_cache(maxsize=128)
def lint_spec_cached(
    app: str, model: str, nthreads: int, scale: str
) -> LintReport:
    """Per-process memo of :func:`lint_app_model` — a checked engine
    lints every spec it resolves, and sweeps repeat (app, model) pairs."""
    return lint_app_model(app, model, nthreads=nthreads, scale=scale)


def lint_spec(spec) -> LintReport:
    """Lint the program a :class:`~repro.engine.spec.RunSpec` would run
    (same build parameters as the engine's ``_build``)."""
    return lint_spec_cached(
        spec.app,
        spec.effective_code_model.value,
        spec.total_threads,
        spec.scale,
    )


@functools.lru_cache(maxsize=128)
def predict_spec_cached(
    app: str,
    model: str,
    processors: int,
    level: int,
    scale: str,
    latency: int,
    forced_interval: int = 200,
    code_model: Optional[str] = None,
) -> ModelPrediction:
    """Per-process memo of the static performance bounds for the program
    a :class:`~repro.engine.spec.RunSpec` would run — the engine attaches
    these to its report (and ``/healthz``), and sweeps repeat
    (app, model, shape) triples.  *code_model* lowers the program for a
    different model than the machine runs (the reorganisation-penalty
    experiments); the bounds always describe the *machine* model's
    switching semantics over that code."""
    from repro.engine.executor import _build

    resolved = SwitchModel.parse(model)
    lowered = SwitchModel.parse(code_model) if code_model else resolved
    _app, prepared = _build(app, processors * level, lowered.value, scale)
    return predict_prepared(
        prepared,
        resolved,
        latency=latency,
        processors=processors,
        level=level,
        forced_interval=forced_interval,
    )


def lint_matrix(
    apps: Optional[Iterable[str]] = None,
    models: Optional[Iterable[Union[str, SwitchModel]]] = None,
    nthreads: int = 2,
    scale: str = "tiny",
) -> Iterator[LintReport]:
    """Yield a report per (app, model) combination — all seven Table 1
    applications across all eight Figure 1 models by default."""
    from repro.apps.registry import app_names

    app_list: List[str] = list(apps) if apps else app_names()
    model_list = (
        [SwitchModel.parse(m) for m in models] if models else list(SwitchModel)
    )
    for app in app_list:
        for model in model_list:
            yield lint_app_model(app, model, nthreads=nthreads, scale=scale)
