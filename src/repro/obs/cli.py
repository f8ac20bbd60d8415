"""``repro-trace`` — record and inspect cycle-level traces.

Examples::

    repro-trace run sieve --model eswitch --out trace.json
    repro-trace run sor --model som --processors 4 --level 8 \\
        --scale small --events events.jsonl --timeline
    repro-trace report ~/.cache/repro/runlog.jsonl
    repro-trace spans ~/.cache/repro/spans.jsonl --tree

``run`` simulates one configuration with a :class:`~repro.obs.tracer.
RingTracer` attached and writes a Chrome ``trace_event`` file — open it
at https://ui.perfetto.dev.  ``--events`` additionally dumps the raw
event stream as JSONL; ``--metrics`` / ``--timeline`` print the derived
aggregate views on stdout.  ``report`` summarizes an engine run log
(where it lives is printed by ``repro-bench`` on exit).  ``spans``
summarizes a wall-clock span log recorded by ``repro-serve serve
--spans`` — per-stage latency quantiles, per-trace trees, and a Chrome
trace export that ``--merge`` can splice with a simulated-cycle trace
into one Perfetto view.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.harness.cliargs import add_check_argument, add_spec_arguments, spec_from_args
from repro.obs.chrome import chrome_trace, validate_chrome_trace, write_chrome_trace
from repro.obs.events import write_events_jsonl
from repro.obs.metrics import metrics_from_events
from repro.obs.runlog import read_runlog, render_runlog_report
from repro.obs.spans import (
    merge_chrome_traces,
    read_spans_jsonl,
    render_span_report,
    render_span_tree,
    spans_chrome_trace,
)
from repro.obs.tracer import RingTracer


def _cmd_run(args) -> int:
    from repro.api import simulate
    from repro.check import check_result
    from repro.lint import lint_spec
    from repro.tools.timeline import render_timeline

    try:
        spec = spec_from_args(args)
    except ValueError as error:
        print(f"repro-trace: {error}", file=sys.stderr)
        return 2
    if args.check:  # a traced run bypasses the engine and its checks
        lint_spec(spec).raise_on_error()
    tracer = RingTracer(capacity=args.capacity)
    result = simulate(
        spec.app,
        model=spec.switch_model,
        processors=spec.processors,
        level=spec.level,
        scale=spec.scale,
        latency=spec.effective_latency,
        tracer=tracer,
        backend=spec.backend,
        **dict(spec.overrides),
    )
    if args.check:
        check_result(result, label=spec.label())
        print("[trace] lint and invariant checks passed", file=sys.stderr)
    events = tracer.events()
    document = chrome_trace(events, tracer.dropped)
    validate_chrome_trace(document)
    write_chrome_trace(args.out, events, tracer.dropped)
    print(
        f"[trace] {spec.app}/{spec.model}: {result.wall_cycles:,} cycles, "
        f"{tracer.total_events:,} events ({tracer.dropped:,} dropped) "
        f"-> {args.out}",
        file=sys.stderr,
    )
    if args.events:
        count = write_events_jsonl(args.events, events)
        print(f"[trace] wrote {count:,} events -> {args.events}", file=sys.stderr)
    if args.timeline:
        print(render_timeline(events, args.processors))
    if args.metrics:
        print(metrics_from_events(events).render())
    return 0


def _cmd_spans(args) -> int:
    try:
        spans = read_spans_jsonl(args.spanlog)
    except OSError as error:
        print(f"repro-trace: {error}", file=sys.stderr)
        return 2
    if args.trace:
        spans = [
            span for span in spans if span.trace_id.startswith(args.trace)
        ]
    if args.chrome:
        document = spans_chrome_trace(spans)
        if args.merge:
            try:
                with open(args.merge, "r", encoding="utf-8") as handle:
                    other = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                print(f"repro-trace: cannot merge {args.merge}: {error}",
                      file=sys.stderr)
                return 2
            document = merge_chrome_traces(other, document)
        validate_chrome_trace(document)
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        print(
            f"[spans] wrote Chrome trace ({len(document['traceEvents']):,} "
            f"events) -> {args.chrome}",
            file=sys.stderr,
        )
    print(render_span_tree(spans) if args.tree else render_span_report(spans))
    return 0


def _cmd_report(args) -> int:
    try:
        entries = read_runlog(args.runlog)
    except OSError as error:
        print(f"repro-trace: {error}", file=sys.stderr)
        return 2
    print(render_runlog_report(entries))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Record Chrome traces of simulations; report engine run logs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="simulate one config with tracing on")
    add_spec_arguments(run)
    add_check_argument(run)
    run.add_argument(
        "--out", default="trace.json", metavar="PATH", help="Chrome trace output"
    )
    run.add_argument(
        "--events", default=None, metavar="PATH", help="also dump raw events as JSONL"
    )
    run.add_argument(
        "--capacity",
        type=int,
        default=1_000_000,
        help="ring-buffer capacity in events (oldest dropped beyond this)",
    )
    run.add_argument(
        "--timeline", action="store_true", help="print the ASCII occupancy timeline"
    )
    run.add_argument(
        "--metrics", action="store_true", help="print the derived metrics report"
    )
    run.set_defaults(func=_cmd_run)

    report = commands.add_parser("report", help="summarize an engine run log")
    report.add_argument("runlog", help="path to runlog.jsonl")
    report.set_defaults(func=_cmd_report)

    spans = commands.add_parser(
        "spans", help="summarize a wall-clock span log (repro-serve --spans)"
    )
    spans.add_argument("spanlog", help="path to spans.jsonl")
    spans.add_argument(
        "--tree",
        action="store_true",
        help="print per-trace span trees instead of the stage-latency table",
    )
    spans.add_argument(
        "--trace",
        default=None,
        metavar="ID",
        help="restrict to one trace (id or unique prefix)",
    )
    spans.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="also write the spans as a Chrome trace_event file",
    )
    spans.add_argument(
        "--merge",
        default=None,
        metavar="TRACE",
        help="splice an existing (cycle) Chrome trace into --chrome output",
    )
    spans.set_defaults(func=_cmd_spans)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro-trace report ... | head`
        sys.stderr.close()  # suppress the interpreter's own pipe warning
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
