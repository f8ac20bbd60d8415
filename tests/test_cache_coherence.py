"""Cache-system integration: coherence, MSHR merging, write combining."""

import pytest

from repro.machine import SwitchModel
from repro.machine.network import MsgKind
from sim_helpers import run_asm


def test_producer_consumer_through_cache():
    """A consumer spinning on a cached flag must observe the producer's
    store (invalidation reaches every cached copy)."""
    asm = """
        bne  r4, r0, consumer
        li   r1, 7
        sws  r1, 8(r0)      ; payload
        li   r1, 1
        sws  r1, 9(r0)      ; flag (same line: write-combined)
        halt
    consumer:
        lws  r2, 9(r0)
        beq  r2, r0, consumer
        lws  r3, 8(r0)
        swl  r3, 0(r0)
        halt
    """
    result = run_asm(
        asm, model=SwitchModel.CONDITIONAL_SWITCH, processors=2, latency=200
    )
    assert result.threads[1].local[0] == 7


def test_mshr_merges_same_line_loads():
    """Grouped loads to one line issue a single line fill."""
    asm = """
        lws r1, 0(r0)
        lws r2, 1(r0)
        lws r3, 2(r0)
        switch
        add r6, r1, r2
        add r6, r6, r3
        swl r6, 0(r0)
        halt
    """
    result = run_asm(
        asm,
        shared=[10, 20, 30] + [0] * 13,
        model=SwitchModel.CONDITIONAL_SWITCH,
        latency=200,
    )
    stats = result.stats
    assert stats.msg_counts[MsgKind.LINE_READ] == 1
    assert stats.cache_merged == 2
    assert result.threads[0].local[0] == 60
    # All three were in flight together: roughly one round trip total.
    assert result.wall_cycles < 280


def test_merged_load_waits_for_fill():
    """A merged load is not magically faster than the fill it joins."""
    asm = """
        lws r1, 0(r0)
        lws r2, 1(r0)
        switch
        add r3, r1, r2
        halt
    """
    result = run_asm(
        asm, shared=[5, 6] + [0] * 14, model=SwitchModel.CONDITIONAL_SWITCH,
        latency=200,
    )
    assert result.wall_cycles >= 200


def test_write_combining_accounting():
    """A burst of stores into one line counts one full write-through and
    cheap combined messages for the rest."""
    body = "\n".join(f"sws r1, {i}(r0)" for i in range(6))
    asm = f"li r1, 3\n{body}\nhalt\n"
    result = run_asm(asm, model=SwitchModel.CONDITIONAL_SWITCH, latency=200)
    stats = result.stats
    assert stats.msg_counts[MsgKind.WRITE_THROUGH] == 1
    assert stats.msg_counts[MsgKind.WRITE_COMBINED] == 5
    assert all(value == 3 for value in result.shared[0:6])


def test_write_combining_breaks_across_lines():
    asm = """
        li  r1, 3
        sws r1, 0(r0)
        sws r1, 9(r0)   ; different 8-word line
        halt
    """
    result = run_asm(asm, model=SwitchModel.CONDITIONAL_SWITCH, latency=200)
    assert result.stats.msg_counts[MsgKind.WRITE_THROUGH] == 2
    assert result.stats.msg_counts[MsgKind.WRITE_COMBINED] == 0


def test_own_store_visible_to_own_load():
    asm = """
        lws r1, 0(r0)       ; fill the line
        switch
        li  r2, 42
        sws r2, 0(r0)
        lws r3, 0(r0)       ; must see 42, cached or not
        switch
        swl r3, 0(r0)
        halt
    """
    result = run_asm(asm, model=SwitchModel.CONDITIONAL_SWITCH, latency=200)
    assert result.threads[0].local[0] == 42


def test_own_faa_visible_to_own_load():
    asm = """
        lws r1, 0(r0)
        switch
        li  r2, 5
        faa r3, 0(r0), r2
        switch
        lws r4, 0(r0)
        switch
        swl r4, 0(r0)
        halt
    """
    result = run_asm(
        asm, shared=[100] + [0] * 15, model=SwitchModel.CONDITIONAL_SWITCH,
        latency=200,
    )
    assert result.threads[0].local[0] == 105


def test_invalidation_generates_messages():
    asm = """
        bne  r4, r0, reader
    writerloop:
        li   r1, 1
        sws  r1, 0(r0)
        lws  r2, 20(r0)     ; wait for reader to confirm
        beq  r2, r0, writerloop
        halt
    reader:
        lws  r3, 0(r0)      ; caches the line
        beq  r3, r0, reader
        li   r3, 1
        sws  r3, 20(r0)
        halt
    """
    result = run_asm(
        asm, model=SwitchModel.CONDITIONAL_SWITCH, processors=2, latency=200
    )
    assert result.stats.msg_counts[MsgKind.INVALIDATE] > 0


def test_directory_invariants_after_app_run():
    from repro.apps import get_app
    from repro.compiler import prepare_for_model
    from repro.harness.sizes import SCALES
    from repro.machine import MachineConfig
    from repro.runtime import make_simulator

    spec = get_app("sor")
    app = spec.build(4, **SCALES["tiny"]["sor"])
    program = prepare_for_model(app.program, SwitchModel.CONDITIONAL_SWITCH)
    config = MachineConfig(
        model=SwitchModel.CONDITIONAL_SWITCH,
        num_processors=2,
        threads_per_processor=2,
        latency=200,
    )
    sim = make_simulator(app, config, program=program)
    sim.run()
    sim.directory.check_invariants()


def test_eviction_drops_directory_entry():
    # Touch more lines than one set can hold; the victim's directory
    # entry must be dropped so later writes do not invalidate a ghost.
    from repro.machine import MachineConfig, Simulator
    from repro.isa import assemble
    from repro.machine.config import CacheConfig

    # 1-set, 1-way, 4-word lines: every new line evicts the previous.
    loads = "\n".join(f"lws r1, {i * 4}(r0)\nswitch" for i in range(4))
    program = assemble(loads + "\nhalt\n")
    config = MachineConfig(
        model=SwitchModel.CONDITIONAL_SWITCH,
        latency=200,
        cache=CacheConfig(num_sets=1, assoc=1, line_words=4),
    )
    sim = Simulator(program, config, [0] * 32, [{}])
    sim.run()
    sim.directory.check_invariants()
    total_lines = sum(
        len(sim.directory.sharers_of(line)) for line in range(8)
    )
    assert total_lines <= 1  # only the resident line is registered
