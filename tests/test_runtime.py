"""Runtime layer: layout allocator, sync primitives, loader."""

import pytest

from repro.isa.builder import ProgramBuilder
from repro.isa.registers import TID_REG, NTHREADS_REG, ARGS_REG
from repro.machine import MachineConfig, SwitchModel, Simulator
from repro.runtime import (
    SharedLayout,
    emit_lock_acquire,
    emit_lock_release,
    emit_barrier,
    emit_counter_next,
    make_simulator,
    run_app,
    LOCK_WORDS,
    BARRIER_WORDS,
)
from repro.apps.base import BuiltApp
from sim_helpers import run_program, NONIDEAL_MODELS


# -- layout ---------------------------------------------------------------------


def test_layout_alignment_and_sizes():
    layout = SharedLayout(align=8)
    a = layout.alloc("a", 3)
    c = layout.alloc("b", 5)
    assert a == 0
    assert c == 8  # aligned up
    assert layout.total_words == 13
    assert layout.size_of("a") == 3


def test_layout_duplicate_name():
    layout = SharedLayout()
    layout.alloc("x", 1)
    with pytest.raises(ValueError, match="twice"):
        layout.alloc("x", 1)


def test_layout_init_values_and_image():
    layout = SharedLayout()
    base = layout.alloc("arr", 4, [7, 8])
    word = layout.word("w", 42)
    image = layout.build_image(pad=2)
    assert image[base : base + 2] == [7, 8]
    assert image[word] == 42
    assert len(image) == layout.total_words + 2


def test_layout_poke_and_slice():
    layout = SharedLayout()
    base = layout.alloc("arr", 4)
    layout.poke(base + 2, 99)
    image = layout.build_image()
    assert layout.region_slice(image, "arr") == [0, 0, 99, 0]
    with pytest.raises(ValueError):
        layout.poke(100, 1)


def test_layout_rejects_oversized_init():
    layout = SharedLayout()
    with pytest.raises(ValueError):
        layout.alloc("a", 2, [1, 2, 3])


# -- synchronisation ------------------------------------------------------------


def _mutex_program():
    """Each thread does 8 lock-protected increments of a shared word."""
    layout = SharedLayout()
    lock = layout.alloc("lock", LOCK_WORDS)
    counter = layout.word("counter")
    b = ProgramBuilder()
    lockr = b.int_reg()
    b.li(lockr, lock)
    i = b.int_reg()
    val = b.int_reg()
    with b.for_range(i, 0, 8):
        ticket = emit_lock_acquire(b, lockr)
        b.lws(val, "r0", counter)
        b.addi(val, val, 1)
        b.sws(val, "r0", counter)
        emit_lock_release(b, lockr, ticket)
    b.halt()
    return b.build("mutex"), layout, counter


@pytest.mark.parametrize(
    "model",
    [
        SwitchModel.SWITCH_ON_LOAD,
        SwitchModel.EXPLICIT_SWITCH,
        SwitchModel.CONDITIONAL_SWITCH,
        SwitchModel.SWITCH_ON_MISS,
    ],
)
def test_lock_gives_mutual_exclusion(model):
    from repro.compiler import prepare_for_model

    program, layout, counter = _mutex_program()
    code = prepare_for_model(program, model)
    result = run_program(
        code, shared=layout.build_image(), processors=2, threads=3, model=model
    )
    assert result.shared[counter] == 8 * 6  # no lost increments


def test_barrier_separates_phases():
    layout = SharedLayout()
    bar = layout.alloc("bar", BARRIER_WORDS)
    before = layout.word("before")
    wrong = layout.word("wrong")
    b = ProgramBuilder()
    barr = b.int_reg()
    b.li(barr, bar)
    one = b.int_reg()
    b.li(one, 1)
    seen = b.int_reg()
    # phase 1: everyone bumps `before`; barrier; phase 2: check that
    # `before` equals nthreads (all phase-1 stores visible).
    b.faa(seen, "r0", before, one)
    emit_barrier(b, barr, NTHREADS_REG)
    b.lws(seen, "r0", before)
    with b.if_cmp("ne", seen, NTHREADS_REG):
        b.sws(one, "r0", wrong)
    b.halt()
    program = b.build("barrier-test")
    result = run_program(
        program,
        shared=layout.build_image(),
        processors=3,
        threads=2,
        model=SwitchModel.SWITCH_ON_LOAD,
    )
    assert result.shared[wrong] == 0
    assert result.shared[before] == 6


def test_barrier_is_reusable():
    layout = SharedLayout()
    bar = layout.alloc("bar", BARRIER_WORDS)
    b = ProgramBuilder()
    barr = b.int_reg()
    b.li(barr, bar)
    i = b.int_reg()
    with b.for_range(i, 0, 5):
        emit_barrier(b, barr, NTHREADS_REG)
    b.halt()
    result = run_program(
        b.build(), shared=layout.build_image(), threads=4,
        model=SwitchModel.SWITCH_ON_LOAD,
    )
    assert all(t.halted for t in result.threads)


def test_counter_distributes_uniquely():
    layout = SharedLayout()
    ctr = layout.word("ctr")
    out = layout.alloc("out", 64)
    b = ProgramBuilder()
    ctrr = b.int_reg()
    outr = b.int_reg()
    one = b.int_reg()
    item = b.int_reg()
    addr = b.int_reg()
    b.li(ctrr, ctr)
    b.li(outr, out)
    b.li(one, 1)
    i = b.int_reg()
    with b.for_range(i, 0, 4):
        emit_counter_next(b, ctrr, item)
        b.add(addr, outr, item)
        b.sws(one, addr, 0)
    b.halt()
    result = run_program(
        b.build(), shared=layout.build_image(), processors=2, threads=2,
        model=SwitchModel.SWITCH_ON_LOAD,
    )
    claimed = result.shared[out : out + 16]
    assert claimed == [1] * 16  # every item claimed exactly once


# -- loader ----------------------------------------------------------------------


def _trivial_app(nthreads: int) -> BuiltApp:
    b = ProgramBuilder()
    b.sws(TID_REG, NTHREADS_REG, 0)  # shared[nthreads + tid... ] no: base=r5
    b.halt()
    # store tid at shared[nthreads]? keep it simple: program above stores
    # tid at address r5 (= nthreads). Use check=None.
    return BuiltApp(
        name="trivial",
        program=b.build(),
        shared=[0] * 64,
        nthreads=nthreads,
        args_base=7,
    )


def test_loader_sets_convention_registers():
    app = _trivial_app(4)
    sim = make_simulator(app, MachineConfig(num_processors=2, threads_per_processor=2))
    assert [t.regs[TID_REG] for t in sim.threads] == [0, 1, 2, 3]
    assert all(t.regs[NTHREADS_REG] == 4 for t in sim.threads)
    assert all(t.regs[ARGS_REG] == 7 for t in sim.threads)


def test_loader_rejects_thread_mismatch():
    app = _trivial_app(4)
    with pytest.raises(ValueError, match="built for 4 threads"):
        make_simulator(app, MachineConfig(num_processors=3, threads_per_processor=1))


def test_run_app_invokes_check():
    app = _trivial_app(1)
    failures = []

    def check(memory):
        failures.append(True)
        raise AssertionError("boom")

    app.check = check
    with pytest.raises(AssertionError, match="boom"):
        run_app(app, MachineConfig())
    assert failures
