"""The ``paper`` and ``paper-jit`` workloads: a cold ``repro-bench all``.

Untraced runs launch the CLI exactly as a user would after a code change
(the result cache is code-versioned, so every run simulates):
``python -m repro.harness.cli all --scale small --no-cache --quiet``;
``paper-jit`` runs it at ``--scale tiny`` with ``--backend compiled``
(see ``run.PAPER``).  Each process's stdout
must match ``data/paper_<scale>.stdout`` byte for byte and its stderr
summary line must carry the exact engine counts below.

Traced runs execute the same reproduction in a child process running
this file, which drives the public harness API with an
``Engine(spans=SpanRecorder(capacity=None))`` and records its own spans
around each table/figure and around ``Engine.summary_line()``.

Run as ``python paper.py SCALE BACKEND OUT.json`` it is that child.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import time
from pathlib import Path

from common import (
    Outcome, Scratch, import_repro, layer_metrics, log, remaining,
    root_seconds, run_timed, union_seconds,
)

DATA = Path(__file__).resolve().parent / "data"

#: Engine counts of ``repro-bench all`` per scale.  One run fails by
#: design: the forced-interval ablation's livelock probe.
EXPECTED = {
    "small": {"runs": 376, "failed": 1, "memo_hits": 59, "cycles": 26_995_371},
    "tiny": {"runs": 314, "failed": 1, "memo_hits": 56, "cycles": 3_811_088},
}

SUMMARY = re.compile(
    r"\[engine\] (?P<runs>\d+) runs \((?P<simulated>\d+) simulated "
    r"\[(?P<backends>[^\]]*)\], (?P<failed>\d+) failed, "
    r"(?P<memo_hits>\d+) memo hits\), (?P<cycles>[\d,]+) cycles"
)

#: Fresh ``--list-backends`` processes timed per run for ``setup_s``.
SETUP_REPEATS = 5

#: Per-layer metrics only a served workload has: no HTTP, client or
#: scheduler exists on this path.
SERVE_ONLY = (
    "serve.rejected", "serve.coalesced", "serve.jobs_retained",
    "client.submit_ms", "client.wait_ms", "client.result_ms",
    "client.polls_per_job", "client.result_kb", "client.outside_server_ms",
)


def cli(*args: str):
    return [sys.executable, "-m", "repro.harness.cli", *args]


def reproduction_cmd(scale: str, backend: str):
    cmd = cli("all", "--scale", scale, "--no-cache", "--quiet")
    # The interpreter is the default; spell the command as users type it.
    return cmd if backend == "interpreter" else cmd + ["--backend", backend]


def check_counts(outcome: Outcome, counts: dict, scale: str, backend: str) -> bool:
    expected = EXPECTED[scale]
    ok = outcome.gate(
        "engine-counts",
        all(counts.get(name) == value for name, value in expected.items()),
        f"got {counts}, expected {expected}",
    )
    return outcome.gate(
        "engine-backend",
        counts.get("backends") == f"{expected['runs']} {backend}",
        f"executed by {counts.get('backends')!r}",
    ) and ok


def parse_summary(stderr: str) -> dict:
    match = SUMMARY.search(stderr)
    if match is None:
        return {}
    counts = {
        name: int(match.group(name).replace(",", ""))
        for name in ("runs", "failed", "memo_hits", "cycles")
    }
    counts["backends"] = match.group("backends")
    return counts


def reproduce(outcome, scratch, scale, backend, expected, deadline, cpu):
    """One cold CLI reproduction on *cpu*, checked; returns its Timed
    or None."""
    out, err = scratch / "paper.stdout", scratch / "paper.stderr"
    outcome.attempted += 1
    timed = run_timed(
        reproduction_cmd(scale, backend), out, err, scratch.env(),
        remaining(deadline, 170.0), cpu,
    )
    stderr = err.read_text(errors="replace")
    ok = outcome.gate("exit-status", timed.returncode == 0,
                      f"exit {timed.returncode}: {stderr[-400:]}")
    ok = outcome.gate("paper-stdout", out.read_bytes() == expected,
                      "stdout differs from the committed tables") and ok
    ok = check_counts(outcome, parse_summary(stderr), scale, backend) and ok
    if not ok:
        outcome.failed += 1
        return None
    return timed


def setup_seconds(outcome, scratch, deadline, probe, cpu) -> float:
    """Median CPU time (user + system) of fresh ``--list-backends``
    processes on *cpu*, at reference speed: what importing the program
    costs before any work.  CPU time, not wall time, so that waiting to
    be scheduled does not count."""
    times = []
    start = time.monotonic()
    for _ in range(SETUP_REPEATS):
        out, err = scratch / "setup.stdout", scratch / "setup.stderr"
        timed = run_timed(cli("--list-backends"), out, err, scratch.env(),
                          remaining(deadline, 60.0), cpu)
        outcome.gate("setup-list-backends",
                     timed.returncode == 0 and b"interpreter" in out.read_bytes(),
                     err.read_text(errors="replace")[-400:])
        times.append(timed.cpu)
    return statistics.median(times) * probe.scale(start, time.monotonic(), cpu)


def run(outcome: Outcome, backend: str, scale: str, trace: bool,
        deadline: float, probe) -> None:
    """One reproduction (15-60 s, longer than the window), and for
    ``--trace 1`` one traced reproduction after it.  Every child runs on
    the first of the probe's CPUs, and its times are scaled by that
    CPU's speed: the reference machine's two vCPUs do not run at the
    same speed as each other."""
    expected = (DATA / f"paper_{scale}.stdout").read_bytes()
    cpu = probe.cpus[0]
    with Scratch(outcome.workload) as scratch:
        if not trace:
            outcome.metrics["setup_s"] = setup_seconds(outcome, scratch, deadline,
                                                       probe, cpu)
        timed = reproduce(outcome, scratch, scale, backend, expected, deadline, cpu)
        if timed is None:
            return
        scale_factor = probe.scale(timed.start, timed.end, cpu)
        log(f"{outcome.workload}: reproduction took {timed.wall:.2f}s, "
            f"{timed.wall * scale_factor:.2f}s at reference speed")
        if trace:
            traced(outcome, scratch, scale, backend, expected,
                   timed.wall * scale_factor, deadline, probe, cpu)
            return
    seconds = timed.wall * scale_factor
    outcome.metrics.update({
        "job_p50_ms": 1e3 * seconds,
        # A reproduction is one job; one job has no tail to take.
        "job_p90_ms": 1e3 * seconds,
        "jobs_per_s": 1.0 / seconds,
        "peak_rss_mb": timed.maxrss_kb / 1024.0,
    })


def traced(outcome, scratch, scale, backend, expected, untraced_s, deadline, probe, cpu):
    """The traced child run; folds its ledger into *outcome*.

    Gate ``layer-sum``: the layer self times must add up to within 5% of
    the traced process's wall time, spawn to exit, as measured here.
    They leave out interpreter start, writing the ledger and exit; a
    stage that no span covers shows up as the difference."""
    out, err, ledger = scratch / "traced.stdout", scratch / "traced.stderr", scratch / "ledger.json"
    outcome.attempted += 1
    timed = run_timed(
        [sys.executable, str(Path(__file__).resolve()), scale, backend, str(ledger)],
        out, err, scratch.env(), remaining(deadline, 170.0), cpu,
    )
    ok = outcome.gate("exit-status", timed.returncode == 0,
                      err.read_text(errors="replace")[-400:])
    ok = outcome.gate("paper-stdout", out.read_bytes() == expected,
                      "traced stdout differs from the committed tables") and ok
    if not ok:
        outcome.failed += 1
        return
    document = json.loads(ledger.read_text())
    if not check_counts(outcome, parse_summary(err.read_text(errors="replace")),
                        scale, backend):
        outcome.failed += 1
    layer_sum = document["layer_sum_s"]
    outcome.gate("layer-sum", abs(layer_sum / timed.wall - 1.0) <= 0.05,
                 f"layer self times sum to {layer_sum:.3f}s "
                 f"of {timed.wall:.3f}s traced")
    log(f"{outcome.workload}: layers explain {layer_sum:.2f}s of {timed.wall:.2f}s traced")
    outcome.metrics.update(document["metrics"])
    outcome.metrics.update({name: 0.0 for name in SERVE_ONLY})
    outcome.metrics["obs.span_coverage"] = document["program_s"] / timed.wall
    traced_s = timed.wall * probe.scale(timed.start, timed.end, cpu)
    outcome.metrics["obs.trace_overhead_frac"] = traced_s / untraced_s - 1.0


def traced_child(scale: str, backend: str, ledger_path: str) -> int:
    """Run the reproduction in-process with spans; print the tables as
    the CLI does and write the per-layer ledger to *ledger_path*."""
    started = time.time()
    import_repro()
    from repro.engine.executor import Engine
    from repro.harness.ablations import ALL_ABLATIONS
    from repro.harness.context import ExperimentContext
    from repro.harness.figures import ALL_FIGURES
    from repro.harness.tables import ALL_TABLES
    from repro.lint import predict_spec_cached
    from repro.obs.spans import SpanRecorder

    generators = {**ALL_TABLES, **ALL_FIGURES, **ALL_ABLATIONS}
    names = sorted(ALL_TABLES) + sorted(ALL_FIGURES) + list(ALL_ABLATIONS)
    program = SpanRecorder(capacity=None)  # the program's own spans
    own = SpanRecorder(capacity=None)  # spans around each call into it
    startup = own.start("startup", start=started)
    engine = Engine(workers=1, cache=None, backend=backend, spans=program)
    ctx = ExperimentContext(scale=scale, engine=engine)
    own.finish(startup)
    try:
        for name in names:
            with own.span("target", attributes={"target": name}):
                text, _data = generators[name](ctx)
                print(text)
                print()
        # summary_line() predicts each distinct program once; the
        # predictor's LRU statistics count those calls.
        before = predict_spec_cached.cache_info()
        with own.span("summary"):
            summary = engine.summary_line()
        after = predict_spec_cached.cache_info()
    finally:
        ctx.close()
    print(summary, file=sys.stderr)

    spans = program.spans()
    metrics = layer_metrics(spans)
    summary_s = next(span.duration for span in own.spans() if span.name == "summary")
    keys = after.hits + after.misses - before.hits - before.misses
    counts = parse_summary(summary)
    metrics.update({
        "sim.cycles": counts["cycles"],
        "sim.mcyc_per_s": counts["cycles"] / metrics["sim.run_s"] / 1e6,
        "harness.self_s": harness_self_seconds(own.spans(), spans),
        "report.summary_s": summary_s,
        "report.predict_keys": keys,
        "lint.predict_ms": 1e3 * summary_s / keys if keys else 0.0,
        "engine.runs": counts["runs"],
        "engine.memo_hits": counts["memo_hits"],
        "engine.failed": counts["failed"],
    })
    layer_sum = (
        metrics["sim.run_s"] + metrics["jit.compile_s"] + metrics["build.s"]
        + metrics["sim.simulate_self_s"] + metrics["harness.self_s"] + summary_s
        + engine_self_seconds(spans)
    )
    document = {
        "program_s": root_seconds(spans),
        "layer_sum_s": layer_sum,
        "metrics": metrics,
    }
    Path(ledger_path).write_text(json.dumps(document))
    return 0


def harness_self_seconds(own, program) -> float:
    """Time inside the benchmark's start-up and table/figure spans
    (imports, engine and context set-up, table code, printing) that no
    span of the program covers, found by clock overlap rather than from
    the program's span tree."""
    intervals = [(span.start, span.end) for span in program]
    return sum(
        span.duration - union_seconds(intervals, span.start, span.end)
        for span in own if span.name in ("startup", "target")
    )


def engine_self_seconds(spans) -> float:
    """Engine time outside the simulator: its root spans (cache lookup,
    dispatch, deserialize) minus the ``simulate`` trees under dispatch."""
    return root_seconds(spans) - sum(
        span.duration for span in spans if span.name == "simulate"
    )


if __name__ == "__main__":
    sys.exit(traced_child(*sys.argv[1:4]))
