"""The compiled backend's equivalence contract.

The :mod:`repro.jit` backend exists to be *fast*, never *different*:
for every application x switch-model pair the compiled backend must
produce a :meth:`SimStats.to_dict` bit-identical to the interpreter's.
This suite pins that contract three ways, and then checks that the
compiled-block table, shared by every program with the same content,
never hands one program code compiled for a different one:

* the full application x model grid, fault-free (every program linted
  first, so only statically verified code is compiled);
* a fault-injected subset (uniform latency jitter + 1% reply loss),
  where the compiled backend must take the interpreter's slow paths —
  byte for byte — through the NACK/retry protocol;
* the committed golden fixture (``tests/data/golden_stats.json``) plus
  the :mod:`repro.check` result oracles, so the compiled backend is
  anchored to the same pre-fault baseline as the interpreter, not just
  to whatever the interpreter does today;
* the full grid again, with a random third of each program's pcs
  compiled first in random order, because which function ends up
  serving a region depends on the order entries are first reached.

Traced and switch-every-cycle runs on the compiled backend keep the
interpreter behind every pc; a test below pins that they compile
nothing and match the interpreter's event stream too.
"""

import json
import random
from pathlib import Path

import pytest

from conftest import run_program
from repro.apps.registry import app_names
from repro.check import check_result
from repro.engine import Engine
from repro.engine.executor import _build
from repro.engine.spec import RunSpec
from repro.faults import FaultConfig
from repro.isa import assemble
from repro.isa.registers import reg_index
from repro.jit import compile_seconds_for
from repro.lint import lint_spec
from repro.machine import SwitchModel
from repro.obs import RingTracer
from repro.obs.events import event_to_record
from repro.obs.spans import SpanRecorder
from repro.runtime.execution import make_simulator

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_stats.json").read_text()
)

APPS = app_names()
MODELS = [model.value for model in SwitchModel]

#: Fault-injected subset: three memory-intensive apps under the three
#: models whose slow paths differ most (plain load switching, the cached
#: model, and one-instruction bursts).
FAULT_APPS = ("sieve", "mp3d", "water")
FAULT_MODELS = (
    "switch-on-load",
    "switch-on-use-miss",
    "switch-every-cycle",
)


def _stats_for(spec: RunSpec, backend: str):
    """One in-process simulation of linted code -> checked
    SimulationResult."""
    lint_spec(spec).raise_on_error()
    app, program = _build(
        spec.app,
        spec.total_threads,
        spec.effective_code_model.value,
        spec.scale,
    )
    result = make_simulator(
        app, spec.machine_config(), program=program, backend=backend
    ).run()
    if app.check is not None:
        app.check(result.shared)
    return result


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("app", APPS)
def test_grid_cell_is_bit_identical(app, model):
    """Interpreter and compiled agree on every fault-free grid cell."""
    spec = RunSpec(app=app, model=model, processors=2, level=4, scale="tiny")
    interpreted = _stats_for(spec, "interpreter")
    compiled = _stats_for(spec, "compiled")
    assert interpreted.stats.to_dict() == compiled.stats.to_dict(), (
        f"{app}/{model}: compiled SimStats diverge from the interpreter"
    )
    assert interpreted.wall_cycles == compiled.wall_cycles


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("app", APPS)
def test_entry_order_does_not_change_results(app, model):
    """Compiling a seeded random third of the pcs, in random order,
    before the run changes which function serves which region, and
    must not change the results.  The program is built afresh (not
    ``_build``'s cached one) on an empty table of its own, so no other
    test's compiled code is reused."""
    spec = RunSpec(app=app, model=model, processors=2, level=4, scale="tiny")
    shape = (spec.app, spec.total_threads, spec.effective_code_model.value,
             spec.scale)
    built, program = _build.__wrapped__(*shape)
    program._jit_variants = {}
    sim = make_simulator(built, spec.machine_config(), program=program,
                         backend="compiled")
    rng = random.Random(f"{app}/{model}")
    for compiled in program._jit_variants.values():
        pcs = list(range(len(compiled.funcs)))
        rng.shuffle(pcs)
        for pc in pcs[:len(pcs) // 3]:
            compiled.ensure(pc)
    result = sim.run()
    if built.check is not None:
        built.check(result.shared)
    interpreted = _stats_for(spec, "interpreter")
    assert result.stats.to_dict() == interpreted.stats.to_dict(), (
        f"{app}/{model}: results depend on the order entries compile"
    )
    assert result.wall_cycles == interpreted.wall_cycles


@pytest.mark.parametrize("model", FAULT_MODELS)
@pytest.mark.parametrize("app", FAULT_APPS)
def test_fault_injected_cell_is_bit_identical(app, model):
    """Jittered latency + 1% reply loss: the compiled backend must fall
    back to the interpreter's fault paths and still match exactly."""
    spec = RunSpec.create(
        app,
        model=model,
        processors=2,
        level=4,
        scale="tiny",
        faults=FaultConfig(
            latency_model="uniform", jitter=80, seed=7, loss_rate=0.01
        ),
    )
    interpreted = _stats_for(spec, "interpreter")
    compiled = _stats_for(spec, "compiled")
    assert interpreted.stats.to_dict() == compiled.stats.to_dict(), (
        f"{app}/{model}: compiled diverges under fault injection"
    )
    # The scenario must actually exercise the fault machinery, or this
    # test silently degrades into a copy of the fault-free grid.
    faulty = interpreted.stats.to_dict()
    assert faulty["replies_delayed"] > 0 or faulty["retries"] > 0


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_compiled_matches_golden_fixture(key):
    """The compiled backend reproduces the committed pre-fault golden
    numbers (the same anchor ``test_golden_baseline`` holds the
    interpreter to), and passes the result oracles."""
    app, model = key.split("/")
    entry = GOLDEN[key]
    spec = RunSpec(app=app, model=model, processors=2, level=2, scale="tiny")
    result = _stats_for(spec, "compiled")
    check_result(result, label=f"{key} (compiled)")
    assert result.wall_cycles == entry["wall_cycles"], key
    stats = result.stats.to_dict()
    mismatched = {
        name
        for name, value in entry["stats"].items()
        if stats.get(name) != value
    }
    assert not mismatched, f"{key}: compiled drift from golden in {mismatched}"


# -- the content-keyed block table ---------------------------------------------
# Each test below runs code that no other test runs, so what an earlier
# test compiled cannot already sit in the shared table.


def _compiled_blocks(program) -> int:
    return sum(cp.compiled_blocks for cp in program._jit_variants.values())


def test_identical_programs_share_compiled_blocks():
    """A second program with the same content compiles nothing, and its
    first ``compile_seconds_for`` sample already counts what the first
    program compiled, so the run's delta is exactly 0.0."""
    text = """
        li   r9, 5
    again:
        lws  r10, 3(r0)
        addi r9, r9, -1
        add  r11, r11, r10
        swl  r11, 2(r0)
        bgt  r9, r0, again
        halt
    """
    shape = dict(model=SwitchModel.SWITCH_ON_LOAD, threads=2)
    first, second = assemble(text), assemble(text)
    run_program(first, backend="compiled", **shape)
    blocks = _compiled_blocks(first)
    assert blocks > 0

    before = compile_seconds_for(second)
    assert second._jit_variants is first._jit_variants
    compiled = run_program(second, backend="compiled", **shape)
    assert _compiled_blocks(second) == blocks
    assert compile_seconds_for(second) - before == 0.0

    interpreted = run_program(assemble(text), backend="interpreter", **shape)
    assert compiled.stats.to_dict() == interpreted.stats.to_dict()
    assert compiled.wall_cycles == interpreted.wall_cycles


def test_loop_header_shares_the_function_that_first_reached_it():
    """Under switch-on-load each load ends a burst, so the burst resumed
    after the second load is the first to reach the loop header through
    the back branch.  Its function serves the header too: the next
    iteration, and any later entry there, runs code compiled once.  The
    program gets an empty table of its own."""
    text = """
        li   r9, 4
    loop:
        lws  r10, 0(r0)
        lws  r11, 1(r0)
        addi r9, r9, -1
        add  r12, r10, r11
        bgt  r9, r0, loop
        halt
    """
    header, entry = 1, 3  # the first load; the pc after the second
    program = assemble(text)
    program._jit_variants = {}
    shape = dict(model=SwitchModel.SWITCH_ON_LOAD, threads=2)
    compiled = run_program(program, backend="compiled", **shape)
    (table,) = program._jit_variants.values()
    assert table.funcs[entry] is not None
    assert table.funcs[header] is table.funcs[entry]

    interpreted = run_program(assemble(text), backend="interpreter", **shape)
    assert compiled.stats.to_dict() == interpreted.stats.to_dict()


def test_float_immediates_store_what_the_interpreter_stores():
    """``repr`` of ``inf``, ``-inf`` and ``nan`` is no Python literal, so
    the generated code must spell them another way.  ``1 == 1.0`` and
    ``0.0 == -0.0``, but each stores a different value: every program
    stays alive here, so a table keyed on ``imm ==`` would run the first
    one's block for its twin."""
    f13 = reg_index("f13")
    programs = []
    for text in ("inf", "-inf", "nan", "1", "1.0", "0.0", "-0.0"):
        stored = []
        for backend in ("compiled", "interpreter"):
            programs.append(assemble(f"fli f13, {text}\nhalt\n"))
            result = run_program(programs[-1], backend=backend)
            stored.append(repr(result.threads[0].regs[f13]))
        assert stored[0] == stored[1], text


def test_traced_engine_run_of_shared_content_records_no_compile():
    """The engine's ``jit-compile`` span covers only the run's own
    compiling: a run of a new program whose content was already compiled
    records none, and never one longer than its ``run`` sibling."""
    spec = RunSpec(app="synth:9137", model="switch-on-load", processors=2,
                   level=1, scale="tiny", backend="compiled")
    shape = (spec.app, spec.total_threads, spec.effective_code_model.value,
             spec.scale)
    app, first = _build.__wrapped__(*shape)  # a build of its own
    make_simulator(app, spec.machine_config(), program=first,
                   backend="compiled").run()
    blocks = _compiled_blocks(first)

    recorder = SpanRecorder(capacity=None)
    with Engine(workers=1, spans=recorder) as engine:
        engine.run(spec)
    _app, second = _build(*shape)  # the program the engine ran
    assert second is not first
    assert _compiled_blocks(second) == blocks

    spans = recorder.spans()
    runs = {s.parent_id: s for s in spans if s.name == "run"}
    compiles = [s for s in spans if s.name == "jit-compile"]
    assert runs
    for span in compiles:
        assert span.duration <= runs[span.parent_id].duration
    assert compiles == []


@pytest.mark.parametrize("model, traced", [
    ("explicit-switch", True),
    ("switch-every-cycle", False),
    ("switch-every-cycle", True),
])
def test_traced_and_switch_every_cycle_runs_keep_the_interpreter(model,
                                                                 traced):
    """A traced run and a switch-every-cycle run on the compiled backend
    keep the interpreter behind every pc: they compile nothing, and their
    SimStats and event stream match the interpreter's bit for bit.  The
    same explicit-switch spec untraced does compile, so the first case
    is not vacuous.  Each program gets an empty table of its own."""
    spec = RunSpec(app="synth:4242", model=model, processors=2, level=2,
                   scale="tiny")
    lint_spec(spec).raise_on_error()
    shape = (spec.app, spec.total_threads, spec.effective_code_model.value,
             spec.scale)

    def run(backend, tracer=None):
        built, program = _build.__wrapped__(*shape)
        program._jit_variants = {}
        result = make_simulator(built, spec.machine_config(), program=program,
                                tracer=tracer, backend=backend).run()
        return result, _compiled_blocks(program)

    seen = {}
    for backend in ("interpreter", "compiled"):
        tracer = RingTracer(capacity=None) if traced else None
        result, blocks = run(backend, tracer)
        assert blocks == 0, f"{backend} compiled {blocks} blocks"
        events = ([event_to_record(e) for e in tracer.events()]
                  if traced else None)
        seen[backend] = (result.wall_cycles, result.stats.to_dict(), events)
    assert seen["compiled"] == seen["interpreter"]
    if traced:
        assert seen["compiled"][2]
    if model == "explicit-switch":
        assert run("compiled")[1] > 0
