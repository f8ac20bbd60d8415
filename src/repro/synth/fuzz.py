"""Differential fuzzing of the simulator with generated kernels.

One fuzz *seed* is one experiment: generate a kernel
(:mod:`repro.synth.generator`), lint it for every switch model, run it
across the full grid of switch models × execution backends, and judge
the grid against three layers of oracles —

1. the kernel's own reference result (the generator's evaluator knows
   the exact final memory image, checked per run);
2. the per-run conservation laws of :func:`repro.check.result_violations`;
3. the cross-model invariants of
   :func:`repro.check.cross_model_violations` (model-independent memory,
   traffic, instruction counts; bit-identical backends), including the
   per-thread retired-instruction law measured by an attached tracer.

A failing seed is *shrunk*: delta debugging over the plan's top-level
segments (:func:`repro.synth.generator.shrink_segments`) finds a minimal
kernel that still violates the same invariant, and the result is written
as a JSON **repro bundle** — seed, config, pruned plan, machine shape
and the first violated invariant — which :func:`replay_bundle` (and
``repro-fuzz --replay``) re-executes exactly.

:func:`run_selftest` closes the loop on the harness itself, mirroring
:mod:`repro.lint.mutations`: it injects deliberate bugs (a store to the
wrong slot, a stale expected-result oracle, ungrouped code slipped under
the explicit-switch model) and proves each one is caught *and* shrunk.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.apps.base import BuiltApp
from repro.check import Violation, cross_model_violations, result_violations
from repro.compiler.passes import prepare_for_model
from repro.faults.config import FaultConfig, LifecycleConfig
from repro.isa.opcodes import Op
from repro.machine.config import MachineConfig
from repro.machine.models import SwitchModel
from repro.obs.tracer import Tracer
from repro.runtime.execution import run_app
from repro.synth.config import SynthConfig, get_preset
from repro.synth.generator import (
    build_synth_app,
    generate_plan,
    plan_segment_ids,
    program_fingerprint,
    shrink_segments,
)
from repro.synth.registry import format_synth_name

BUNDLE_VERSION = 1

#: Every switch model's value string, grid order.
ALL_MODELS: Tuple[str, ...] = tuple(model.value for model in SwitchModel)

#: Both execution backends; the grid cross-checks them bit-for-bit.
ALL_BACKENDS: Tuple[str, ...] = ("interpreter", "compiled")


class SelfTestError(AssertionError):
    """The harness failed to catch (or shrink) an injected bug."""


@dataclasses.dataclass(frozen=True)
class FuzzOptions:
    """Machine shape and scope of one fuzzing campaign."""

    models: Tuple[str, ...] = ALL_MODELS
    backends: Tuple[str, ...] = ALL_BACKENDS
    processors: int = 2
    level: int = 2
    latency: int = 64
    faults: Optional[FaultConfig] = None
    lint: bool = True
    per_thread: bool = True
    shrink: bool = True
    use_engine: bool = True

    def __post_init__(self) -> None:
        models = tuple(SwitchModel.parse(m).value for m in self.models)
        object.__setattr__(self, "models", models)
        for backend in self.backends:
            if backend not in ALL_BACKENDS:
                raise ValueError(
                    f"unknown backend {backend!r} (known: "
                    f"{', '.join(ALL_BACKENDS)})"
                )
        if not self.models or not self.backends:
            raise ValueError("need at least one model and one backend")

    @property
    def nthreads(self) -> int:
        return self.processors * self.level

    @property
    def faulty(self) -> bool:
        faults = self.faults
        return faults is not None and (
            faults.injects_faults or faults.drives_lifecycles
        )

    def to_dict(self) -> Dict:
        payload = {
            "models": list(self.models),
            "backends": list(self.backends),
            "processors": self.processors,
            "level": self.level,
            "latency": self.latency,
            "faults": None,
        }
        if self.faults is not None:
            payload["faults"] = dataclasses.asdict(self.faults)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FuzzOptions":
        faults = payload.get("faults")
        if faults is not None:
            faults = dict(faults)
            lifecycle = faults.get("lifecycle")
            if lifecycle is not None:
                faults["lifecycle"] = LifecycleConfig(**lifecycle)
            faults = FaultConfig(**faults)
        return cls(
            models=tuple(payload["models"]),
            backends=tuple(payload["backends"]),
            processors=payload["processors"],
            level=payload["level"],
            latency=payload["latency"],
            faults=faults,
        )


def fault_profile(name: str, seed: int = 0) -> Optional[FaultConfig]:
    """Canned :class:`FaultConfig` for the CLI's ``--faults`` flag.

    ``none`` disables injection; ``loss`` drops/delays replies through
    the NACK/retry machinery; ``lifecycle`` walks two memory components
    through short degrade/fail/repair cycles.  Both active profiles are
    seeded per fuzz seed so campaigns stay reproducible.
    """
    if name == "none":
        return None
    if name == "loss":
        return FaultConfig(
            loss_rate=0.02, delay_rate=0.05, delay_cycles=32, seed=seed
        )
    if name == "lifecycle":
        return FaultConfig(
            seed=seed,
            lifecycle=LifecycleConfig(
                components=2,
                seed=seed,
                mean_healthy=600,
                mean_degraded=150,
                mean_failed=80,
                mean_repair=120,
            ),
        )
    raise ValueError(
        f"unknown fault profile {name!r} (known: none, loss, lifecycle)"
    )


@dataclasses.dataclass
class SeedOutcome:
    """Everything the harness learned from one fuzz seed."""

    seed: int
    preset: str
    name: str
    fingerprint: str
    runs: int
    violations: List[Violation] = dataclasses.field(default_factory=list)
    bundle: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "preset": self.preset,
            "name": self.name,
            "fingerprint": self.fingerprint,
            "runs": self.runs,
            "ok": self.ok,
            "violations": [
                {"invariant": v.invariant, "message": v.message}
                for v in self.violations
            ],
        }


class _InstrCountTracer(Tracer):
    """Counts retired non-SWITCH instructions per thread — the probe
    behind the ``per-thread-instructions`` law."""

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}

    def instr(self, time: int, pid: int, tid: int, pc: int, op: int) -> None:
        if op != Op.SWITCH:
            self.counts[tid] = self.counts.get(tid, 0) + 1


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------


def _machine_config(model: str, options: FuzzOptions) -> MachineConfig:
    resolved = SwitchModel(model)
    return MachineConfig(
        model=resolved,
        num_processors=options.processors,
        threads_per_processor=options.level,
        latency=0 if resolved is SwitchModel.IDEAL else options.latency,
        faults=options.faults,
    )


def _run_grid_direct(
    app: BuiltApp,
    options: FuzzOptions,
    program_overrides: Optional[Mapping[str, object]] = None,
) -> Tuple[Dict[str, Dict[str, object]], List[Violation]]:
    """Run *app* across the model × backend grid in-process.

    *program_overrides* maps a model value to a program to run instead
    of the properly prepared one — the self-test's way of slipping a
    deliberate bug under one model.
    """
    grid: Dict[str, Dict[str, object]] = {}
    violations: List[Violation] = []
    overrides = program_overrides or {}
    for model in options.models:
        program = overrides.get(model)
        if program is None:
            program = prepare_for_model(app.program, SwitchModel(model))
        config = _machine_config(model, options)
        cells: Dict[str, object] = {}
        for backend in options.backends:
            where = f"{model}/{backend}"
            try:
                result = run_app(
                    app, config, program=program, check=False, backend=backend
                )
            except Exception as error:  # noqa: BLE001 - recorded, not raised
                violations.append(
                    Violation(
                        "run-error", f"{where}: {type(error).__name__}: {error}"
                    )
                )
                continue
            cells[backend] = result
            if app.check is not None:
                try:
                    app.check(result.shared)
                except AssertionError as error:
                    violations.append(
                        Violation("functional-check", f"{where}: {error}")
                    )
            for violation in result_violations(result):
                violations.append(
                    Violation(
                        violation.invariant, f"{where}: {violation.message}"
                    )
                )
        if cells:
            grid[model] = cells
    return grid, violations


def _run_grid_engine(
    name: str, options: FuzzOptions
) -> Tuple[Dict[str, Dict[str, object]], List[Violation]]:
    """Run a registry-addressable kernel across the grid through the
    :class:`~repro.engine.executor.Engine` — one engine per backend, so
    the fuzzer exercises exactly the execution funnel every CLI uses."""
    from repro.engine.executor import Engine, EngineRunError
    from repro.engine.spec import RunSpec

    grid: Dict[str, Dict[str, object]] = {}
    violations: List[Violation] = []
    spec_overrides: Dict[str, object] = {}
    if options.faults is not None:
        spec_overrides["faults"] = options.faults
    for backend in options.backends:
        with Engine(workers=1, cache=None, backend=backend) as engine:
            for model in options.models:
                where = f"{model}/{backend}"
                spec = RunSpec(
                    app=name,
                    model=model,
                    processors=options.processors,
                    level=options.level,
                    scale="tiny",
                    latency=0 if model == "ideal" else options.latency,
                    overrides=spec_overrides,
                )
                try:
                    result = engine.run(spec)
                except EngineRunError as error:
                    message = str(error)
                    invariant = (
                        "functional-check"
                        if "AssertionError" in message
                        else "run-error"
                    )
                    violations.append(
                        Violation(invariant, f"{where}: {message}")
                    )
                    continue
                grid.setdefault(model, {})[backend] = result
                for violation in result_violations(result):
                    violations.append(
                        Violation(
                            violation.invariant,
                            f"{where}: {violation.message}",
                        )
                    )
    return grid, violations


def _per_thread_counts(
    app: BuiltApp,
    options: FuzzOptions,
    program_overrides: Optional[Mapping[str, object]] = None,
) -> Dict[str, Dict[int, int]]:
    """One traced interpreter run per model → per-thread retired
    non-SWITCH instruction counts."""
    overrides = program_overrides or {}
    counts: Dict[str, Dict[int, int]] = {}
    for model in options.models:
        program = overrides.get(model)
        if program is None:
            program = prepare_for_model(app.program, SwitchModel(model))
        tracer = _InstrCountTracer()
        try:
            run_app(
                app,
                _machine_config(model, options),
                program=program,
                check=False,
                tracer=tracer,
                backend="interpreter",
            )
        except Exception:  # noqa: BLE001 - the grid pass reports run errors
            continue
        counts[model] = tracer.counts
    return counts


def _lint_violations(app: BuiltApp, options: FuzzOptions) -> List[Violation]:
    """Generated kernels must lint clean **by construction** — any
    diagnostic at all (error, warning or info) fails the seed."""
    from repro.lint import lint_pair

    violations: List[Violation] = []
    for model in options.models:
        prepared = prepare_for_model(app.program, SwitchModel(model))
        report = lint_pair(app.program, prepared, model)
        for diagnostic in report.diagnostics:
            violations.append(
                Violation(
                    "lint-clean", f"{model}: {diagnostic.render()}"
                )
            )
    return violations


def _grid_violations(
    plan: Dict,
    app: BuiltApp,
    options: FuzzOptions,
    program_overrides: Optional[Mapping[str, object]] = None,
    engine_name: Optional[str] = None,
    per_thread: Optional[bool] = None,
) -> Tuple[List[Violation], int]:
    """Run the full differential grid for one kernel and return every
    violation plus the number of simulations performed."""
    deterministic = plan["config"]["sync"] == "none"
    if engine_name is not None and program_overrides is None:
        grid, violations = _run_grid_engine(engine_name, options)
    else:
        grid, violations = _run_grid_direct(app, options, program_overrides)
    runs = sum(len(cells) for cells in grid.values())
    counts: Optional[Dict[str, Dict[int, int]]] = None
    want_counts = options.per_thread if per_thread is None else per_thread
    if want_counts and deterministic and not options.faulty:
        counts = _per_thread_counts(app, options, program_overrides)
        runs += len(counts)
    violations.extend(
        cross_model_violations(
            grid,
            deterministic=deterministic,
            faulty=options.faulty,
            per_thread=counts,
        )
    )
    return violations, runs


# ---------------------------------------------------------------------------
# shrinking + repro bundles
# ---------------------------------------------------------------------------

#: Builds the (app, program_overrides) pair to test for a given plan —
#: identity for real fuzzing, a bug-injecting recipe in the self-test.
BuildFn = Callable[[Dict, int], Tuple[BuiltApp, Optional[Dict[str, object]]]]


def _default_build(
    plan: Dict, nthreads: int
) -> Tuple[BuiltApp, Optional[Dict[str, object]]]:
    return build_synth_app(plan, nthreads), None


def shrink_plan(
    plan: Dict,
    invariant: str,
    options: FuzzOptions,
    build: BuildFn = _default_build,
) -> Dict:
    """Minimal plan (ddmin over top-level segments) still violating
    *invariant*.  Every candidate is re-run through the direct grid, so
    the shrunk kernel is guaranteed to reproduce."""

    def still_fails(candidate: Dict) -> bool:
        app, overrides = build(candidate, options.nthreads)
        violations, _ = _grid_violations(
            candidate,
            app,
            options,
            program_overrides=overrides,
            per_thread=(invariant == "per-thread-instructions"),
        )
        return any(v.invariant == invariant for v in violations)

    return shrink_segments(plan, still_fails)


def make_bundle(
    outcome: SeedOutcome,
    plan: Dict,
    options: FuzzOptions,
    shrunk: Optional[Dict] = None,
) -> Dict:
    """JSON-native repro bundle: everything ``replay_bundle`` needs to
    re-execute the failure, keyed by the first violated invariant."""
    first = outcome.violations[0]
    final_plan = shrunk if shrunk is not None else plan
    return {
        "version": BUNDLE_VERSION,
        "kind": "repro-bundle",
        "seed": outcome.seed,
        "preset": outcome.preset,
        "name": outcome.name,
        "config": plan["config"],
        "options": options.to_dict(),
        "invariant": first.invariant,
        "message": first.message,
        "violations": [
            {"invariant": v.invariant, "message": v.message}
            for v in outcome.violations
        ],
        "plan": final_plan,
        "original_segments": len(plan_segment_ids(plan)),
        "shrunk_segments": len(plan_segment_ids(final_plan)),
        "fingerprint": program_fingerprint(
            build_synth_app(final_plan, options.nthreads).program
        ),
    }


def write_bundle(bundle: Dict, directory: Union[str, Path]) -> Path:
    """Persist *bundle* under *directory*; returns the file path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (
        f"repro-seed{bundle['seed']}-{bundle['invariant']}.json"
    )
    path.write_text(json.dumps(bundle, indent=2) + "\n", encoding="utf-8")
    return path


def replay_bundle(bundle: Union[Dict, str, Path]) -> SeedOutcome:
    """Re-execute a repro bundle's (possibly pruned) plan on its exact
    machine shape; the outcome lists whatever still fails."""
    if not isinstance(bundle, dict):
        bundle = json.loads(Path(bundle).read_text(encoding="utf-8"))
    options = dataclasses.replace(
        FuzzOptions.from_dict(bundle["options"]), shrink=False
    )
    plan = bundle["plan"]
    app = build_synth_app(plan, options.nthreads, name=bundle["name"])
    violations, runs = _grid_violations(plan, app, options)
    return SeedOutcome(
        seed=bundle["seed"],
        preset=bundle["preset"],
        name=bundle["name"],
        fingerprint=program_fingerprint(app.program),
        runs=runs,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# the fuzz loop
# ---------------------------------------------------------------------------


def fuzz_seed(
    seed: int,
    preset: str = "default",
    options: Optional[FuzzOptions] = None,
    config: Optional[SynthConfig] = None,
) -> SeedOutcome:
    """One full differential experiment for one seed (lint gate, grid
    run, cross-model invariants; shrink + bundle on failure)."""
    options = options or FuzzOptions()
    cfg = config if config is not None else get_preset(preset)
    plan = generate_plan(seed, cfg)
    app = build_synth_app(plan, options.nthreads)
    name = format_synth_name(seed, preset)
    violations: List[Violation] = []
    if options.lint:
        violations.extend(_lint_violations(app, options))
    engine_name = name if (options.use_engine and config is None) else None
    grid_violations, runs = _grid_violations(
        plan, app, options, engine_name=engine_name
    )
    violations.extend(grid_violations)
    outcome = SeedOutcome(
        seed=seed,
        preset=preset,
        name=name,
        fingerprint=program_fingerprint(app.program),
        runs=runs,
        violations=violations,
    )
    if violations and options.shrink:
        shrunk = shrink_plan(plan, violations[0].invariant, options)
        outcome.bundle = make_bundle(outcome, plan, options, shrunk)
    elif violations:
        outcome.bundle = make_bundle(outcome, plan, options)
    return outcome


def fuzz_many(
    seeds,
    preset: str = "default",
    options: Optional[FuzzOptions] = None,
    bundle_dir: Union[str, Path, None] = None,
    corpus_dir: Union[str, Path, None] = None,
    progress: Optional[Callable[[SeedOutcome], None]] = None,
    stop_on_failure: bool = False,
) -> Dict:
    """Run a campaign over *seeds*; returns a JSON-native summary.

    Failing seeds are shrunk and their bundles written under
    *bundle_dir*; *corpus_dir* receives one corpus entry per seed
    (:func:`write_corpus_entry`) regardless of outcome.
    """
    options = options or FuzzOptions()
    outcomes: List[SeedOutcome] = []
    bundles: List[str] = []
    for seed in seeds:
        outcome = fuzz_seed(seed, preset=preset, options=options)
        outcomes.append(outcome)
        if corpus_dir is not None:
            write_corpus_entry(outcome, corpus_dir)
        if outcome.bundle is not None and bundle_dir is not None:
            bundles.append(str(write_bundle(outcome.bundle, bundle_dir)))
        if progress is not None:
            progress(outcome)
        if stop_on_failure and not outcome.ok:
            break
    failures = [outcome for outcome in outcomes if not outcome.ok]
    return {
        "preset": preset,
        "options": options.to_dict(),
        "seeds": len(outcomes),
        "runs": sum(outcome.runs for outcome in outcomes),
        "failures": len(failures),
        "bundles": bundles,
        "outcomes": [outcome.to_dict() for outcome in outcomes],
    }


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def write_corpus_entry(
    outcome: SeedOutcome, directory: Union[str, Path]
) -> Path:
    """One corpus file per fuzzed kernel: its registry-addressable name
    plus the program fingerprint (a replay oracle for other hosts)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entry = {
        "app": outcome.name,
        "seed": outcome.seed,
        "preset": outcome.preset,
        "fingerprint": outcome.fingerprint,
        "ok": outcome.ok,
    }
    path = directory / f"seed{outcome.seed}-{outcome.preset}.json"
    path.write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")
    return path


def read_corpus(directory: Union[str, Path]) -> List[Dict]:
    """Every corpus entry under *directory*, seed-sorted."""
    entries = []
    for path in sorted(Path(directory).glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(payload, dict) and "app" in payload:
            entries.append(payload)
    return entries


def replay_corpus_serve(
    base_url: str,
    corpus: Union[str, Path, List[Dict]],
    options: Optional[FuzzOptions] = None,
    timeout: Optional[float] = 120.0,
) -> Dict:
    """Replay a corpus through a live ``repro-serve`` instance.

    Every kernel is submitted by its ``synth:`` registry name across the
    campaign's model grid, so the server builds the exact same programs
    from seeds alone — the corpus carries no code.  Returns a summary
    with per-spec serve statuses; ``ok`` is true when every spec
    completed.
    """
    from repro.serve.client import Client

    options = options or FuzzOptions()
    entries = read_corpus(corpus) if not isinstance(corpus, list) else corpus
    specs = [
        {
            "app": entry["app"],
            "model": model,
            "processors": options.processors,
            "level": options.level,
            "scale": "tiny",
            "latency": 0 if model == "ideal" else options.latency,
        }
        for entry in entries
        for model in options.models
    ]
    client = Client(base_url)
    accepted = client.submit(specs)
    status = client.wait(accepted["job"], timeout=timeout)
    results = client.result(accepted["job"], wait=False)
    failed = [
        payload for payload in results
        if not isinstance(payload, dict) or "error" in payload
    ]
    return {
        "job": accepted["job"],
        "state": status["state"],
        "kernels": len(entries),
        "specs": len(specs),
        "failed": len(failed),
        "ok": status["state"] == "done" and not failed,
    }


# ---------------------------------------------------------------------------
# mutation self-test — prove the harness catches injected bugs
# ---------------------------------------------------------------------------


def _replace_program(app: BuiltApp, program) -> BuiltApp:
    return dataclasses.replace(app, program=program)


def _mutate_final_store(
    plan: Dict, nthreads: int
) -> Tuple[BuiltApp, Optional[Dict[str, object]]]:
    """Generator-bug stand-in: the kernel's final accumulator store
    lands one slot away from where the evaluator expects it."""
    app = build_synth_app(plan, nthreads)
    program = app.program.copy()
    for instruction in reversed(program.instructions):
        if instruction.op == Op.SWS:
            instruction.imm += 1 if instruction.imm == 0 else -1
            break
    else:  # pragma: no cover - every synth kernel ends in a store
        raise SelfTestError("victim kernel has no store to corrupt")
    return _replace_program(app, program), None


def _mutate_stale_oracle(
    plan: Dict, nthreads: int
) -> Tuple[BuiltApp, Optional[Dict[str, object]]]:
    """Evaluator-bug stand-in: the expected-memory oracle disagrees with
    the machine on one word."""
    app = build_synth_app(plan, nthreads)
    reference = app.check

    def skewed_check(memory) -> None:
        doctored = list(memory)
        doctored[0] ^= 1
        reference(doctored)

    return dataclasses.replace(app, check=skewed_check), None


def _mutate_ungrouped_explicit(
    plan: Dict, nthreads: int
) -> Tuple[BuiltApp, Optional[Dict[str, object]]]:
    """Compiler-bug stand-in: the explicit-switch machine is handed the
    *original* ungrouped code (no SWITCHes), so its retired-instruction
    total diverges from conditional-switch's grouped code."""
    app = build_synth_app(plan, nthreads)
    return app, {"explicit-switch": app.program}


MUTATIONS: Dict[str, Callable] = {
    "final-store-skew": _mutate_final_store,
    "stale-oracle": _mutate_stale_oracle,
    "ungrouped-explicit-code": _mutate_ungrouped_explicit,
}


def run_selftest(
    seed: int = 3, preset: str = "quick", options: Optional[FuzzOptions] = None
) -> Dict:
    """Inject each deliberate bug, assert the harness catches it, and
    assert the shrinker reduces it to a no-larger reproducer.  Returns a
    per-mutation report; raises :class:`SelfTestError` on any miss."""
    base = options or FuzzOptions()
    options = dataclasses.replace(base, use_engine=False, per_thread=True)
    cfg = get_preset(preset)
    plan = generate_plan(seed, cfg)
    original_segments = len(plan_segment_ids(plan))
    report: Dict[str, Dict] = {}
    problems: List[str] = []
    for name, mutate in sorted(MUTATIONS.items()):
        app, overrides = mutate(plan, options.nthreads)
        violations, _ = _grid_violations(
            plan, app, options, program_overrides=overrides
        )
        if not violations:
            problems.append(f"{name}: injected bug produced no violation")
            report[name] = {"caught": False}
            continue
        invariant = violations[0].invariant
        shrunk = shrink_plan(
            plan,
            invariant,
            options,
            build=lambda p, n, _mutate=mutate: _mutate(p, n),
        )
        shrunk_segments = len(plan_segment_ids(shrunk))
        if shrunk_segments > original_segments:
            problems.append(
                f"{name}: shrink grew the plan "
                f"({original_segments} -> {shrunk_segments} segments)"
            )
        report[name] = {
            "caught": True,
            "invariant": invariant,
            "violations": len(violations),
            "original_segments": original_segments,
            "shrunk_segments": shrunk_segments,
        }
    if problems:
        raise SelfTestError(
            "fuzz self-test failed:\n  - " + "\n  - ".join(problems)
        )
    return report
