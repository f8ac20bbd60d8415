"""Deeper behaviour tests for the less-used taxonomy models."""

import pytest

from repro.machine import SwitchModel
from sim_helpers import BACKENDS, run_asm


def test_sec_interleaves_two_threads_fairly():
    # Two compute-only threads under switch-every-cycle share the
    # processor cycle by cycle: both finish at nearly the same time.
    asm = """
        li r9, 50
    loop:
        addi r9, r9, -1
        bne r9, r0, loop
        halt
    """
    result = run_asm(asm, model=SwitchModel.SWITCH_EVERY_CYCLE, threads=2)
    halts = [t.halt_time for t in result.threads]
    assert abs(halts[0] - halts[1]) <= 2
    # Interleaving doubles each thread's completion time.
    solo = run_asm(asm, model=SwitchModel.SWITCH_EVERY_CYCLE, threads=1)
    assert min(halts) >= 2 * solo.wall_cycles - 4


def test_sec_hides_latency_with_enough_threads():
    asm = """
        li r9, 16
    loop:
        lws r1, 0(r0)
        addi r9, r9, -1
        bne r9, r0, loop
        halt
    """
    thin = run_asm(asm, model=SwitchModel.SWITCH_EVERY_CYCLE, threads=2, latency=200)
    wide = run_asm(asm, model=SwitchModel.SWITCH_EVERY_CYCLE, threads=32, latency=200)
    # 16x the work in much less than 16x the time.
    assert wide.wall_cycles < thin.wall_cycles * 6


def test_use_model_prefetch_distance_matters():
    # With uses far from loads, switch-on-use pays almost nothing; with
    # uses adjacent it behaves like switch-on-load.
    near = """
        li r9, 16
    loop:
        lws r1, 0(r0)
        add r2, r1, r1
        addi r9, r9, -1
        bne r9, r0, loop
        halt
    """
    far = """
        li r9, 16
    loop:
        lws r1, 0(r0)
        addi r9, r9, -1
        add r3, r9, r9
        add r3, r3, r9
        add r2, r1, r1
        bne r9, r0, loop
        halt
    """
    near_result = run_asm(near, model=SwitchModel.SWITCH_ON_USE, latency=200)
    far_result = run_asm(far, model=SwitchModel.SWITCH_ON_USE, latency=200)
    # Both wait ~latency per iteration with one thread, but the far
    # version's waits are shorter by the overlap distance.
    assert far_result.stats.busy_cycles > near_result.stats.busy_cycles
    assert far_result.wall_cycles <= near_result.wall_cycles + 16 * 4


def test_use_miss_only_switches_on_missing_use():
    asm = """
        lws r1, 0(r0)
        add r2, r1, r1
        lws r3, 0(r0)
        add r4, r3, r3
        halt
    """
    result = run_asm(asm, model=SwitchModel.SWITCH_ON_USE_MISS, latency=200)
    # First use waits for the miss; second load hits so its use is free.
    assert result.stats.cache_misses == 1
    assert result.stats.cache_hits == 1
    assert result.stats.switches == 1


def test_flush_cost_not_charged_by_opcode_identified_models():
    asm = """
        lws r1, 0(r0)
        switch
        halt
    """
    for model in (SwitchModel.EXPLICIT_SWITCH, SwitchModel.CONDITIONAL_SWITCH):
        result = run_asm(asm, model=model, latency=200, switch_cost=9)
        assert result.stats.switch_overhead_cycles == 0, model


def test_burst_limit_does_not_change_results():
    """Burst granularity is invisible: every burst limit, on both
    backends, gives the same SimStats, whether a burst ends at its
    deadline, at a load (switch-on-load) or at a use of a register whose
    load is in flight (explicit-switch, switch-on-use).  The first loop
    is one burst of about 600 ALU cycles, which limit 16 ends at its
    deadline 37 times and limit 256 twice; the second runs 17
    cycles between two switches, so limit 16 also ends each of those
    bursts once at its deadline."""
    asm = """
        li r9, 200
        li r10, 0
    spin:
        add r10, r10, r9
        addi r9, r9, -1
        bne r9, r0, spin
        li r9, 200
    loop:
        lws r11, 1(r0)
        mul r12, r9, r9
        add r10, r10, r12
        addi r9, r9, -1
        add r10, r10, r11
        bne r9, r0, loop
        sws r10, 0(r0)
        halt
    """
    shared = [0, 3] + [0] * 62
    total = sum(i + i * i + 3 for i in range(1, 201))
    implicit = {SwitchModel.SWITCH_ON_LOAD: 0, SwitchModel.EXPLICIT_SWITCH: 200,
                SwitchModel.SWITCH_ON_USE: 0}
    for model, implicit_switches in implicit.items():
        seen = set()
        for limit in (16, 256, 4096):
            for backend in BACKENDS:
                result = run_asm(asm, shared=shared, model=model, latency=200,
                                 burst_limit=limit, backend=backend)
                assert result.shared[0] == total
                stats = result.stats
                assert stats.switches == 200, (model, limit, backend)
                assert stats.implicit_use_switches == implicit_switches, (
                    model, limit, backend)
                seen.add((result.wall_cycles, repr(sorted(stats.to_dict().items()))))
        assert len(seen) == 1, model


def test_latency_zero_non_ideal():
    # A degenerate zero-latency switch-on-load machine still works.
    asm = """
        lws r1, 0(r0)
        sws r1, 1(r0)
        halt
    """
    result = run_asm(
        asm, shared=[9] + [0] * 15, model=SwitchModel.SWITCH_ON_LOAD, latency=0
    )
    assert result.shared[1] == 9
