"""Timeline tools and latency-jitter support."""

import pytest

from repro.isa import assemble
from repro.machine import MachineConfig, SwitchModel, Simulator
from repro.obs import EventKind, RingTracer, TraceEvent, bursts
from repro.tools import render_timeline, timeline_summary
from sim_helpers import run_asm

WORKLOAD = """
    li r9, 12
loop:
    lws r1, 0(r0)
    add r2, r1, r1
    addi r9, r9, -1
    bne r9, r0, loop
    halt
"""


def traced(config, threads):
    """Run the workload on *config* with a tracer; returns (sim, events)."""
    tracer = RingTracer(capacity=None)
    sim = Simulator(
        assemble(WORKLOAD), config, [0] * 16, [{}] * threads, tracer=tracer
    )
    sim.run()
    return sim, tracer.events()


def test_timeline_disabled_by_default():
    """Bursts are recorded only by a tracer the caller attaches."""
    sim = Simulator(
        assemble(WORKLOAD), MachineConfig(), [0] * 16, [{}]
    )
    assert sim.tracer is None


def test_timeline_events_recorded():
    config = MachineConfig(
        model=SwitchModel.SWITCH_ON_LOAD,
        threads_per_processor=2,
        latency=200,
    )
    sim, events = traced(config, 2)
    timeline = list(bursts(events))
    assert timeline
    for start, pid, tid, end, outcome in timeline:
        assert 0 <= start <= end
        assert pid == 0
        assert tid in (0, 1)
    # Busy cycles in the timeline match the stats.
    total = sum(end - start for start, _p, _t, end, _o in timeline)
    assert total == sim.stats.busy_cycles


def test_render_timeline_shape():
    config = MachineConfig(
        model=SwitchModel.SWITCH_ON_LOAD,
        num_processors=2,
        threads_per_processor=1,
        latency=200,
    )
    _sim, events = traced(config, 2)
    text = render_timeline(events, 2, width=40)
    lines = text.splitlines()
    assert lines[1].startswith("P0: ")
    assert lines[2].startswith("P1: ")
    assert len(lines[1]) == len("P0: ") + 40
    summary = timeline_summary(events, 2)
    assert summary[0] and summary[1]


def test_render_empty_timeline():
    assert "(empty timeline)" in render_timeline([], 1)


def test_degenerate_burst_never_marks_past_horizon():
    """Regression: a zero-length burst at the horizon used to be clamped
    to the horizon first, then widened to one cycle — marking a bucket
    *past* ``until``."""
    def burst(start, tid, end, outcome=0):
        return TraceEvent(start, EventKind.BURST, 0, tid, (end, outcome))

    events = [
        burst(0, 0, 100),
        burst(100, 1, 100, 3),  # zero-length burst exactly at the horizon
    ]
    text = render_timeline(events, 1, width=10, until=100)
    row = text.splitlines()[1][len("P0: "):]
    assert row == "0" * 10  # thread 1's mark must not appear anywhere
    # A degenerate burst *inside* the horizon still shows up as one cycle.
    inside = render_timeline([burst(5, 7, 5)], 1, width=10, until=10)
    assert "7" in inside.splitlines()[1]


def test_timeline_accepts_trace_events():
    """The ASCII timeline is a view over the obs event stream: it reads
    the BURST events and skips every other kind."""
    config = MachineConfig(
        model=SwitchModel.SWITCH_ON_LOAD, threads_per_processor=2, latency=200
    )
    _sim, events = traced(config, 2)
    only_bursts = [event for event in events if event.kind is EventKind.BURST]
    assert len(only_bursts) < len(events)
    assert render_timeline(events, 1, width=40) == render_timeline(
        only_bursts, 1, width=40
    )
    assert timeline_summary(events, 1) == timeline_summary(only_bursts, 1)


# -- jitter ----------------------------------------------------------------------


def test_jitter_is_deterministic():
    walls = {
        run_asm(
            WORKLOAD,
            model=SwitchModel.SWITCH_ON_LOAD,
            latency=200,
            latency_jitter=100,
        ).wall_cycles
        for _ in range(3)
    }
    assert len(walls) == 1


def test_jitter_increases_latency():
    base = run_asm(WORKLOAD, model=SwitchModel.SWITCH_ON_LOAD, latency=200)
    jittered = run_asm(
        WORKLOAD, model=SwitchModel.SWITCH_ON_LOAD, latency=200, latency_jitter=200
    )
    assert jittered.wall_cycles > base.wall_cycles
    # Jitter is bounded: never more than latency + jitter per trip.
    assert jittered.wall_cycles < base.wall_cycles * 2.2


def test_apps_stay_correct_under_jitter():
    """Out-of-order response delivery must not break any application."""
    from repro.apps import get_app, app_names
    from repro.compiler import prepare_for_model
    from repro.harness.sizes import SCALES
    from repro.runtime import run_app

    for name in app_names():
        spec = get_app(name)
        app = spec.build(4, **SCALES["tiny"][name])
        for model in (SwitchModel.EXPLICIT_SWITCH, SwitchModel.CONDITIONAL_SWITCH):
            program = prepare_for_model(app.program, model)
            config = MachineConfig(
                model=model,
                num_processors=2,
                threads_per_processor=2,
                latency=200,
                latency_jitter=150,
                max_cycles=300_000_000,
            )
            run_app(app, config, program=program)  # raises if wrong


def test_faa_atomicity_survives_jitter():
    asm = """
        li  r1, 1
        li  r9, 20
    loop:
        faa r2, 0(r0), r1
        addi r9, r9, -1
        bne r9, r0, loop
        halt
    """
    result = run_asm(
        asm,
        model=SwitchModel.SWITCH_ON_LOAD,
        processors=2,
        threads=3,
        latency=200,
        latency_jitter=180,
    )
    assert result.shared[0] == 20 * 6
