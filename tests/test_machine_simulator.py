"""Event engine: ordering, memory timing, atomicity, termination."""

import pytest

from repro.isa import assemble
from repro.machine import (
    MachineConfig,
    Simulator,
    SimulationTimeout,
    SwitchModel,
)
from sim_helpers import run_asm, run_program


def test_requires_finalized_program():
    from repro.isa import Instruction, Op, Program

    raw = Program([Instruction(Op.HALT)])
    with pytest.raises(ValueError, match="finalized"):
        Simulator(raw, MachineConfig(), [0], [{}])


def test_thread_register_count_checked():
    program = assemble("halt\n")
    config = MachineConfig(num_processors=2, threads_per_processor=2)
    with pytest.raises(ValueError, match="4 threads"):
        Simulator(program, config, [0], [{}])


def test_store_applies_at_half_latency():
    # Thread 0 stores at t=1; thread 1 (other processor) polls the word.
    # The store is visible at the memory from t ~ 1 + 100.
    asm = """
        bne  r4, r0, reader
        li   r1, 7
        sws  r1, 0(r0)
        halt
    reader:
        lws  r2, 0(r0)
        bne  r2, r0, done
        j    reader
    done:
        swl  r2, 0(r0)
        halt
    """
    result = run_asm(
        asm, model=SwitchModel.SWITCH_ON_LOAD, processors=2, latency=200
    )
    reader = result.threads[1]
    assert reader.local[0] == 7
    # The reader cannot observe the value before the writer's store
    # reached memory plus a return trip.
    assert reader.halt_time > 100


def test_faa_is_atomic_under_contention():
    asm = """
        li  r1, 1
        li  r9, 25
    loop:
        faa r2, 0(r0), r1
        addi r9, r9, -1
        bne r9, r0, loop
        halt
    """
    result = run_asm(
        asm, model=SwitchModel.SWITCH_ON_LOAD, processors=4, threads=4, latency=200
    )
    assert result.shared[0] == 25 * 16  # no lost updates


def test_ordered_delivery_same_thread():
    # Two stores then a load to the same address by one thread must
    # observe the second store (issue order = memory order).
    asm = """
        li  r1, 1
        li  r2, 2
        sws r1, 5(r0)
        sws r2, 5(r0)
        lws r3, 5(r0)
        swl r3, 0(r0)
        halt
    """
    result = run_asm(asm, model=SwitchModel.SWITCH_ON_LOAD, latency=200)
    assert result.threads[0].local[0] == 2


def test_write_after_write_register():
    # Two in-flight loads to the same register: the later load's value
    # must win and the register stays busy until the later one returns.
    asm = """
        lws r1, 0(r0)
        lws r1, 1(r0)
        switch
        swl r1, 0(r0)
        halt
    """
    result = run_asm(
        asm,
        shared=[11, 22] + [0] * 20,
        model=SwitchModel.EXPLICIT_SWITCH,
        latency=200,
    )
    assert result.threads[0].local[0] == 22


def test_timeout_on_runaway_program():
    asm = """
    spin:
        j spin
        halt
    """
    with pytest.raises(SimulationTimeout):
        run_asm(asm, model=SwitchModel.IDEAL, max_cycles=10_000)


def test_wall_time_is_last_halt():
    asm = """
        bne r4, r0, slow
        halt
    slow:
        li r9, 50
    loop:
        addi r9, r9, -1
        bne r9, r0, loop
        halt
    """
    result = run_asm(asm, model=SwitchModel.IDEAL, threads=2)
    assert result.wall_cycles == max(t.halt_time for t in result.threads)


def test_deterministic_replay():
    asm = """
        li  r1, 1
        li  r9, 10
    loop:
        faa r2, 0(r0), r1
        lws r3, 1(r0)
        addi r9, r9, -1
        bne r9, r0, loop
        halt
    """
    runs = [
        run_asm(asm, model=SwitchModel.SWITCH_ON_LOAD, processors=2, threads=3)
        for _ in range(2)
    ]
    assert runs[0].wall_cycles == runs[1].wall_cycles
    assert runs[0].stats.summary() == runs[1].stats.summary()


def test_block_thread_assignment():
    # Thread i runs on processor i // threads_per_processor.
    asm = "halt\n"
    result = run_asm(asm, processors=2, threads=3)
    assert len(result.threads) == 6
    assert result.config.total_threads == 6


def test_efficiency_metric():
    result = run_asm("li r1, 1\nhalt\n", model=SwitchModel.IDEAL)
    assert result.efficiency(result.wall_cycles) == pytest.approx(1.0)
    assert result.efficiency(0) == 0.0 or result.efficiency(0) == pytest.approx(0.0)
