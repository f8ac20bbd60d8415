#!/usr/bin/env python3
"""Visualize the Section 6.2 starvation anomaly as a processor timeline.

Run with::

    python examples/starvation_timeline.py

Renders ASCII Gantt charts of which thread occupied each processor over
time, for ugray under conditional-switch:

* with the forced-switch interval **off**, a thread riding long
  cache-hit runs monopolises its processor while a sibling holds the
  row-queue lock everyone else spins on — the run is cut off by a cycle
  budget because it never finishes;
* with the paper's 200-cycle interval, the rows show fine-grained
  interleaving and the run completes.
"""

from repro.apps import UgrayApp
from repro.compiler import prepare_for_model
from repro.machine import MachineConfig, SwitchModel, SimulationTimeout
from repro.obs import RingTracer
from repro.runtime import make_simulator
from repro.tools import render_timeline, timeline_summary

SIZE = {"width": 8, "height": 6, "grid": 4, "spheres": 6, "steps": 8}


def run_with_interval(interval: int, budget: int):
    spec = UgrayApp()
    app = spec.build(6, **SIZE)
    program = prepare_for_model(app.program, SwitchModel.CONDITIONAL_SWITCH)
    config = MachineConfig(
        model=SwitchModel.CONDITIONAL_SWITCH,
        num_processors=2,
        threads_per_processor=3,
        latency=200,
        forced_switch_interval=interval,
        max_cycles=budget,
    )
    tracer = RingTracer(capacity=None)
    sim = make_simulator(app, config, program=program, tracer=tracer)
    outcome = "completed"
    try:
        sim.run()
    except SimulationTimeout:
        outcome = f"LIVELOCK (cut off at {budget} cycles)"
    return tracer.events(), outcome


def main():
    budget = 60_000
    for interval, label in ((0, "forced interval OFF"), (200, "forced interval 200")):
        events, outcome = run_with_interval(interval, budget)
        print(f"=== {label}: {outcome} ===")
        print(render_timeline(events, 2, width=72, until=budget))
        shares = timeline_summary(events, 2)
        for pid, per_thread in shares.items():
            top = sorted(per_thread.items(), key=lambda kv: -kv[1])[:3]
            pretty = ", ".join(f"t{tid}:{cycles}" for tid, cycles in top)
            print(f"  P{pid} busiest threads: {pretty}")
        print()


if __name__ == "__main__":
    main()
