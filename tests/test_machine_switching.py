"""Model-specific context-switch behaviour and timing.

Every case runs on both backends: the compiled backend's blocks stop at
a busy register and leave the pause-or-switch decision to the burst
loop, so these cases check that decision against the interpreter's.
"""

import pytest

from repro.machine import SwitchModel
from sim_helpers import BACKENDS, run_asm

LOAD_HALT = """
    lws r1, 0(r0)
    halt
"""

TWO_LOADS = """
    lws r1, 0(r0)
    lws r2, 1(r0)
    add r3, r1, r2
    swl r3, 0(r0)
    halt
"""

GROUPED_TWO_LOADS = """
    lws r1, 0(r0)
    lws r2, 1(r0)
    switch
    add r3, r1, r2
    swl r3, 0(r0)
    halt
"""


def test_switch_on_load_waits_full_latency():
    for backend in BACKENDS:
        result = run_asm(LOAD_HALT, model=SwitchModel.SWITCH_ON_LOAD,
                         latency=200, backend=backend)
        # load issues at cycle 0; its round trip completes at cycle 200.
        assert result.wall_cycles == 200, backend
        assert result.stats.switches == 1, backend


def test_switch_on_load_serialises_loads():
    for backend in BACKENDS:
        result = run_asm(TWO_LOADS, model=SwitchModel.SWITCH_ON_LOAD,
                         latency=200, backend=backend)
        # Each load waits its own round trip: > 400 cycles.
        assert result.wall_cycles > 400, backend
        assert result.stats.switches == 2, backend


def test_explicit_switch_overlaps_grouped_loads():
    for backend in BACKENDS:
        result = run_asm(GROUPED_TWO_LOADS, model=SwitchModel.EXPLICIT_SWITCH,
                         latency=200, backend=backend)
        # Both loads in flight together: one wait of ~200, not two.
        assert 200 <= result.wall_cycles < 240, backend
        assert result.stats.switches == 1, backend


def test_explicit_switch_without_switch_falls_back_to_use():
    for backend in BACKENDS:
        result = run_asm(TWO_LOADS, model=SwitchModel.EXPLICIT_SWITCH,
                         latency=200, backend=backend)
        # The add uses r1 while in flight: one implicit use-switch, which
        # waits for both loads.
        assert result.stats.implicit_use_switches == 1, backend
        assert result.stats.switches == 1, backend


def test_switch_on_use_waits_at_first_use():
    for backend in BACKENDS:
        result = run_asm(TWO_LOADS, model=SwitchModel.SWITCH_ON_USE,
                         latency=200, backend=backend)
        # Loads overlap (split-phase): wall well under two round trips.
        assert result.wall_cycles < 300, backend
        assert result.stats.implicit_use_switches == 0, backend
        assert result.stats.switches == 1, backend


@pytest.mark.parametrize(
    "model", [SwitchModel.EXPLICIT_SWITCH, SwitchModel.SWITCH_ON_USE])
def test_use_when_the_reply_is_due_pauses_instead_of_switching(model):
    """A register used in the cycle its reply is due, within the burst
    that loaded it, pauses (the reply event is still queued); used two
    cycles earlier it switches, and only explicit-switch counts that as
    an implicit use-switch."""
    implicit = 1 if model is SwitchModel.EXPLICIT_SWITCH else 0
    for spins, switches, implicit_switches in ((98, 1, implicit), (99, 0, 0)):
        asm = f"""
            lws  r1, 0(r0)
            li   r9, {spins}
        loop:
            addi r9, r9, -1
            bne  r9, r0, loop
            add  r3, r1, r1
            halt
        """
        for backend in BACKENDS:
            result = run_asm(asm, model=model, latency=200, backend=backend)
            # The reply is due at cycle 200; the add runs at 2 + 2 * spins.
            assert result.wall_cycles == 201, (spins, backend)
            assert result.stats.switches == switches, (spins, backend)
            assert result.stats.implicit_use_switches == implicit_switches, (
                spins, backend)


def test_shared_stores_never_switch():
    for backend in BACKENDS:
        result = run_asm(
            """
            li  r1, 9
            sws r1, 0(r0)
            sws r1, 1(r0)
            sws r1, 2(r0)
            halt
            """,
            model=SwitchModel.SWITCH_ON_LOAD,
            latency=200,
            backend=backend,
        )
        assert result.stats.switches == 0, backend
        assert result.wall_cycles == 4, backend
        assert result.shared[0:3] == [9, 9, 9], backend


def test_conditional_switch_skips_on_hit():
    asm = """
        lws r1, 0(r0)
        switch
        lws r2, 0(r0)
        switch
        add r3, r1, r2
        halt
    """
    for backend in BACKENDS:
        result = run_asm(asm, model=SwitchModel.CONDITIONAL_SWITCH,
                         latency=200, backend=backend)
        # First load misses (switch taken), second hits the fetched line
        # (switch skipped).
        assert result.stats.cache_misses == 1, backend
        assert result.stats.cache_hits == 1, backend
        assert result.stats.switches == 1, backend
        assert result.stats.skipped_switches == 1, backend


def test_conditional_switch_forced_interval():
    # A long cache-hit loop must be broken by the forced switch.
    asm = """
        lws  r1, 0(r0)
        switch
        li   r2, 200
    loop:
        lws  r3, 0(r0)
        switch
        addi r2, r2, -1
        bne  r2, r0, loop
        halt
    """
    for backend in BACKENDS:
        result = run_asm(
            asm,
            model=SwitchModel.CONDITIONAL_SWITCH,
            latency=200,
            forced_switch_interval=100,
            backend=backend,
        )
        assert result.stats.forced_switches > 0, backend


def test_switch_on_miss_charges_flush_cost():
    for backend in BACKENDS:
        flushes = {}
        for cost in (0, 8):
            result = run_asm(
                TWO_LOADS,
                model=SwitchModel.SWITCH_ON_MISS,
                latency=200,
                switch_cost=cost,
                threads=2,
                backend=backend,
            )
            flushes[cost] = result.stats.switch_overhead_cycles
        assert flushes[0] == 0, backend
        assert flushes[8] > 0, backend


def test_switch_every_cycle_rotates_each_instruction():
    for backend in BACKENDS:
        result = run_asm(
            """
            li r1, 1
            li r2, 2
            li r3, 3
            halt
            """,
            model=SwitchModel.SWITCH_EVERY_CYCLE,
            backend=backend,
        )
        # Every instruction ends a run.
        assert result.stats.switches >= 3, backend
        assert result.stats.mean_run_length == pytest.approx(1.0), backend


def test_round_robin_is_fair():
    # Two threads ping-pong on shared loads; their halt times interleave.
    asm = """
        li  r9, 8
    loop:
        lws r1, 0(r0)
        addi r9, r9, -1
        bne r9, r0, loop
        halt
    """
    for backend in BACKENDS:
        result = run_asm(asm, model=SwitchModel.SWITCH_ON_LOAD, threads=4,
                         latency=200, backend=backend)
        halts = sorted(t.halt_time for t in result.threads)
        assert halts[-1] - halts[0] < 100, backend  # all finish within a whisker


def test_multithreading_hides_latency():
    asm = """
        li  r9, 32
    loop:
        lws r1, 0(r0)
        add r2, r1, r1
        add r2, r1, r1
        add r2, r1, r1
        addi r9, r9, -1
        bne r9, r0, loop
        halt
    """
    for backend in BACKENDS:
        walls = {}
        for threads in (1, 8):
            result = run_asm(
                asm, model=SwitchModel.SWITCH_ON_LOAD, threads=threads,
                latency=200, backend=backend,
            )
            walls[threads] = result.wall_cycles
        # Eight threads do eight times the work in much less than 8x the
        # time of one thread (latency overlap).
        assert walls[8] < walls[1] * 2, backend


def test_run_lengths_partition_busy_cycles():
    for backend in BACKENDS:
        result = run_asm(TWO_LOADS, model=SwitchModel.SWITCH_ON_LOAD,
                         latency=200, backend=backend)
        stats = result.stats
        recorded = sum(length * count for length, count in stats.run_lengths.items())
        assert recorded == stats.busy_cycles, backend


def test_ideal_never_switches(tiny_shared):
    for backend in BACKENDS:
        result = run_asm(TWO_LOADS, model=SwitchModel.IDEAL,
                         shared=tiny_shared, backend=backend)
        assert result.stats.switches == 0, backend
        assert result.threads[0].local[0] == tiny_shared[0] + tiny_shared[1], backend
