"""Performance ledger of the reproduction and the simulation service.

::

    python3 benchmarks/ledger/run.py --workload paper --seed 1
    python3 benchmarks/ledger/run.py --workload serve-cold --seed 2 --trace 1
    python3 benchmarks/ledger/run.py --workload all
    python3 benchmarks/ledger/run.py --smoke

Each workload runs the program from outside, through its public entry
points, checks that the outputs are correct and prints every metric by
name with its unit; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
(the default) reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that reports its per-layer metrics.
Exit status 0 means every correctness gate held; a checkout without a
``src/repro`` tree exits 2 without a result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
import traceback
from typing import List

import paper
import serve
from common import (
    SourceMissing, Outcome, import_repro, load_benchmark, log, metric_units,
    pin_to_reference_cpus,
)
from probe import SpeedProbe

WORKLOADS = ("paper", "paper-jit", "serve-cold", "serve-warm")
#: Backend and scale of each paper workload.  paper-jit reproduces at
#: tiny scale: at small scale one compiled reproduction takes 60-80 s,
#: and 23 of them would take half of the time all runs may take.  At tiny
#: scale it still compiles 279 programs in its 314 runs, and compiling
#: is 94% of its simulate time.
PAPER = {"paper": ("interpreter", "small"), "paper-jit": ("compiled", "tiny")}

#: Correctness gates each workload must have run (``--smoke`` checks).
REQUIRED_GATES = {
    "paper": {"paper-stdout", "engine-counts", "engine-backend"},
    "paper-jit": {"paper-stdout", "engine-counts", "engine-backend"},
    "serve-cold": {"resimulate", "no-failed-jobs"},
    "serve-warm": {"fill", "fill-resimulate", "fill-capture", "no-failed-jobs"},
}

#: A run must end well inside 180 s; children get what is left of this.
RUN_BUDGET = 170.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 cpus: List[int], smoke: bool = False) -> Outcome:
    outcome = Outcome(name)
    deadline = time.monotonic() + RUN_BUDGET
    try:
        with SpeedProbe(cpus) as probe:
            if name in PAPER:
                backend, scale = PAPER[name]
                paper.run(outcome, backend, "tiny" if smoke else scale, trace,
                          deadline, probe)
            else:
                serve.run(outcome, seed, seconds, trace, probe)
            speeds = ", ".join(f"CPU {cpu} {probe.scale(-math.inf, math.inf, cpu):.3f}"
                               for cpu in cpus)
            log(f"{name}: speed relative to reference: {speeds}")
    except Exception:  # noqa: BLE001 - reported as an incorrect run
        outcome.gate("completed", False, traceback.format_exc())
    bench = load_benchmark()
    wanted = {entry["name"] for entry in bench["per_layer" if trace else "end_to_end"]}
    emitted = set(outcome.metrics)
    outcome.gate("metric-set", emitted == wanted,
                 f"missing {sorted(wanted - emitted)}, extra {sorted(emitted - wanted)}")
    return outcome


def report(outcome: Outcome, units) -> None:
    print(f"== {outcome.workload}: {'correct' if outcome.correct else 'INCORRECT'}, "
          f"{outcome.failed}/{outcome.attempted} failed")
    for name, value in sorted(outcome.metrics.items()):
        print(f"  {name:<28} {value:>16.6g} {units.get(name, '?')}")
    for error in outcome.errors:
        print(f"  ! {error.strip()}")


def smoke(units, cpus: List[int]) -> int:
    """Every workload at a few-second scale, plain and traced: every
    metric named in BENCHMARK.json emitted, every gate run and held."""
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            outcome = run_workload(name, 1, 2.0, trace, cpus, smoke=True)
            report(outcome, units)
            missing = REQUIRED_GATES[name] - set(outcome.gates)
            if missing:
                problems.append(f"{name} trace={int(trace)}: gates never ran: {sorted(missing)}")
            if not outcome.correct:
                problems.append(f"{name} trace={int(trace)}: incorrect")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly, plain and traced, and "
                        "check every metric and gate")
    args = parser.parse_args(argv)
    try:
        import_repro()
    except SourceMissing as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 2
    # Leave through the ``with`` blocks on SIGTERM, so every child
    # process (probe, servers, reproductions) is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    units = metric_units()
    cpus = pin_to_reference_cpus()
    if args.smoke:
        return smoke(units, cpus)
    seconds = args.seconds or load_benchmark()["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = []
    for name in names:
        log(f"{name}: seed {args.seed}, {seconds:g}s, trace {args.trace}")
        outcome = run_workload(name, args.seed, seconds, bool(args.trace), cpus)
        report(outcome, units)
        outcomes.append(outcome)
    if len(outcomes) == 1:
        document = outcomes[0].document(units)
    else:
        document = {
            "correct": all(outcome.correct for outcome in outcomes),
            "attempted": sum(outcome.attempted for outcome in outcomes),
            "failed": sum(outcome.failed for outcome in outcomes),
            "metrics": {
                f"{outcome.workload}.{name}": entry
                for outcome in outcomes
                for name, entry in outcome.document(units)["metrics"].items()
            },
        }
    print(json.dumps(document), flush=True)
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
