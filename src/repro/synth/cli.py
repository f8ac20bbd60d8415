"""``repro-fuzz`` — differential fuzzing of the simulator.

Examples::

    repro-fuzz --seeds 200                      # campaign, default preset
    repro-fuzz --seeds 25 --quick --models eswitch,cswitch
    repro-fuzz --seeds 50 --faults loss         # NACK/retry machinery on
    repro-fuzz --selftest                       # prove injected bugs are caught
    repro-fuzz --replay fuzz-bundles/repro-seed3-functional-check.json
    repro-fuzz --seeds 20 --quick --corpus corpus/   # export corpus
    repro-fuzz --serve http://127.0.0.1:8321 --corpus corpus/

Failing seeds are shrunk to a minimal kernel and written as JSON repro
bundles under ``--bundle-dir``.  Exit status: 0 when every seed is
clean, 1 when any invariant was violated, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys


def _parse_models(raw: str):
    from repro.machine.models import SwitchModel

    return tuple(
        SwitchModel.parse(token.strip()).value
        for token in raw.split(",")
        if token.strip()
    )


def _parse_backends(raw: str):
    return tuple(token.strip() for token in raw.split(",") if token.strip())


def _build_options(args) -> "FuzzOptions":
    from repro.synth.fuzz import FuzzOptions, fault_profile

    kwargs = {}
    if args.models:
        kwargs["models"] = _parse_models(args.models)
    if args.backends:
        kwargs["backends"] = _parse_backends(args.backends)
    return FuzzOptions(
        processors=args.processors,
        level=args.level,
        latency=args.latency,
        faults=fault_profile(args.faults, seed=args.start),
        lint=not args.no_lint,
        per_thread=not args.no_per_thread,
        shrink=not args.no_shrink,
        use_engine=not args.direct,
        **kwargs,
    )


def _emit_json(payload, destination) -> None:
    if destination == "-":
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"[fuzz] wrote {destination}", file=sys.stderr)


def _cmd_selftest(args) -> int:
    from repro.synth.fuzz import SelfTestError, run_selftest

    try:
        report = run_selftest(seed=args.start or 3)
    except SelfTestError as error:
        print(f"repro-fuzz: {error}", file=sys.stderr)
        return 1
    for name, entry in report.items():
        print(
            f"[selftest] {name}: caught as {entry['invariant']!r}, "
            f"shrunk {entry['original_segments']} -> "
            f"{entry['shrunk_segments']} segment(s)"
        )
    if args.json:
        _emit_json(report, args.json)
    print(
        f"[selftest] {len(report)} injected bug(s) caught and shrunk",
        file=sys.stderr,
    )
    return 0


def _cmd_replay(args) -> int:
    from repro.synth.fuzz import replay_bundle

    outcome = replay_bundle(args.replay)
    status = "clean" if outcome.ok else "REPRODUCED"
    print(
        f"[replay] {outcome.name} ({outcome.runs} run(s)): {status}"
    )
    for violation in outcome.violations:
        print(f"  - [{violation.invariant}] {violation.message}")
    if args.json:
        _emit_json(outcome.to_dict(), args.json)
    return 1 if outcome.violations else 0


def _cmd_serve_replay(args) -> int:
    from repro.synth.fuzz import replay_corpus_serve

    if not args.corpus:
        print(
            "repro-fuzz: --serve needs --corpus pointing at exported "
            "corpus entries",
            file=sys.stderr,
        )
        return 2
    options = _build_options(args)
    summary = replay_corpus_serve(args.serve, args.corpus, options=options)
    print(
        f"[serve-replay] job {summary['job']}: {summary['kernels']} "
        f"kernel(s), {summary['specs']} spec(s), state {summary['state']}, "
        f"{summary['failed']} failed"
    )
    if args.json:
        _emit_json(summary, args.json)
    return 0 if summary["ok"] else 1


def _cmd_run(args) -> int:
    from repro.synth.fuzz import fuzz_many

    options = _build_options(args)
    seeds = range(args.start, args.start + args.seeds)

    def progress(outcome) -> None:
        status = "ok" if outcome.ok else "FAIL"
        line = (
            f"[fuzz] seed {outcome.seed} ({outcome.name}): {status}, "
            f"{outcome.runs} run(s)"
        )
        if not outcome.ok:
            line += f" -- first: [{outcome.violations[0].invariant}]"
        print(line, file=sys.stderr)

    summary = fuzz_many(
        seeds,
        preset=args.preset,
        options=options,
        bundle_dir=args.bundle_dir,
        corpus_dir=args.corpus,
        progress=progress if not args.no_progress else None,
        stop_on_failure=args.stop_on_failure,
    )
    print(
        f"[fuzz] {summary['seeds']} seed(s), {summary['runs']} run(s): "
        f"{summary['seeds'] - summary['failures']} clean, "
        f"{summary['failures']} failing"
    )
    for path in summary["bundles"]:
        print(f"[fuzz] repro bundle: {path}")
    if args.json:
        _emit_json(summary, args.json)
    return 1 if summary["failures"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description=(
            "Differential fuzzing: generated kernels across every switch "
            "model and backend, cross-checked against conservation and "
            "inter-model invariants and the static predictor's bounds."
        ),
    )
    parser.add_argument(
        "--seeds", type=int, default=50, help="number of seeds to fuzz"
    )
    parser.add_argument(
        "--start", type=int, default=0, help="first seed of the range"
    )
    parser.add_argument(
        "--preset",
        default="default",
        help="generator preset (default, dense, branchy, sync, quick)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorthand for --preset quick (small fast kernels)",
    )
    parser.add_argument(
        "--models",
        help="comma-separated switch models (aliases accepted); default all 8",
    )
    parser.add_argument(
        "--backends",
        help="comma-separated execution backends; default interpreter,compiled",
    )
    parser.add_argument("--processors", type=int, default=2)
    parser.add_argument(
        "--level", type=int, default=2, help="threads per processor"
    )
    parser.add_argument(
        "--latency", type=int, default=64, help="round-trip latency in cycles"
    )
    parser.add_argument(
        "--faults",
        choices=("none", "loss", "lifecycle"),
        default="none",
        help="fault-injection profile for every run of the grid",
    )
    parser.add_argument(
        "--bundle-dir",
        default="fuzz-bundles",
        help="where shrunk repro bundles for failing seeds go",
    )
    parser.add_argument(
        "--corpus",
        help="directory for corpus entries (one per seed; also the corpus "
        "source for --serve)",
    )
    parser.add_argument("--no-shrink", action="store_true")
    parser.add_argument(
        "--no-lint", action="store_true", help="skip the per-model lint gate"
    )
    parser.add_argument(
        "--no-per-thread",
        action="store_true",
        help="skip the traced per-thread instruction-count runs",
    )
    parser.add_argument(
        "--direct",
        action="store_true",
        help="run in-process instead of through the engine",
    )
    parser.add_argument("--stop-on-failure", action="store_true")
    parser.add_argument(
        "--no-progress", action="store_true", help="silence per-seed lines"
    )
    parser.add_argument(
        "--json", help="write the JSON summary here ('-' for stdout)"
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="inject deliberate bugs and prove they are caught and shrunk",
    )
    parser.add_argument(
        "--replay", metavar="BUNDLE", help="re-execute a repro bundle"
    )
    parser.add_argument(
        "--serve",
        metavar="URL",
        help="replay --corpus through a live repro-serve instance",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.preset = "quick"

    try:
        if args.selftest:
            return _cmd_selftest(args)
        if args.replay:
            return _cmd_replay(args)
        if args.serve:
            return _cmd_serve_replay(args)
        return _cmd_run(args)
    except (KeyError, ValueError) as error:
        print(f"repro-fuzz: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
