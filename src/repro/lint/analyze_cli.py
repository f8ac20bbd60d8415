"""``repro-analyze`` — static performance prediction and validation.

Examples::

    repro-analyze sieve                    # per-model bound table
    repro-analyze --all --json pred.json   # machine-readable predictions
    repro-analyze --all --validate         # predicted vs measured gate

Generated kernels are checked against the same bounds by ``repro-fuzz``.
Exit status: 0 on success, 1 when validation found violations, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys


def _bound(value) -> str:
    return "inf" if value is None else str(value)


def _render_prediction(name: str, prediction) -> str:
    header = (
        f"{name} @ P={prediction.processors} M={prediction.level} "
        f"L={prediction.latency}"
    )
    lines = [header]
    lines.append(
        f"  {'model':22s} {'run[min,max]':>14s} {'sw[min,max]':>14s} "
        f"{'util<=':>8s} {'sites':>6s}"
    )
    for model_name, model in sorted(prediction.models.items()):
        runs = f"[{model.run_min},{_bound(model.run_max)}]"
        switches = f"[{model.switch_min},{_bound(model.switch_max)}]"
        lines.append(
            f"  {model_name:22s} {runs:>14s} {switches:>14s} "
            f"{model.utilization_bound:8.3f} "
            f"{model.static_switch_sites:6d}"
        )
    functions = prediction.call_graph.get("functions", [])
    if functions:
        lines.append(f"  call graph: {len(functions)} function(s)")
        for fn in functions:
            label = fn["label"] or f"pc {fn['entry_pc']}"
            lines.append(
                f"    {label}: {len(fn['callers'])} call site(s), "
                f"{fn['instructions']} instruction(s), "
                f"{fn['shared_loads']} shared load(s)"
            )
    bounded = sum(
        1 for loop in prediction.loops if loop.trips is not None
    )
    if prediction.loops:
        lines.append(
            f"  loops: {len(prediction.loops)} "
            f"({bounded} with static trip counts)"
        )
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    from repro.apps.registry import app_names, get_app
    from repro.harness.sizes import sizes_for
    from repro.lint.predict import predict_program
    from repro.machine.models import SwitchModel

    apps = args.apps or (app_names() if args.all else None)
    if not apps:
        print(
            "repro-analyze: name at least one application or pass --all",
            file=sys.stderr,
        )
        return 2
    try:
        models = (
            [SwitchModel.parse(m) for m in args.model]
            or list(SwitchModel)
        )
        nthreads = args.processors * args.level
        predictions = {}
        for name in apps:
            spec = get_app(name)
            app = spec.build(nthreads, **sizes_for(spec.name, args.scale))
            predictions[name] = predict_program(
                app.program,
                models,
                latency=args.latency,
                processors=args.processors,
                level=args.level,
            )
    except (KeyError, ValueError) as error:
        print(f"repro-analyze: {error}", file=sys.stderr)
        return 2

    for name, prediction in predictions.items():
        print(_render_prediction(name, prediction))

    status = 0
    payload = {
        "scale": args.scale,
        "predictions": {
            name: prediction.to_dict()
            for name, prediction in predictions.items()
        },
    }
    if args.validate:
        payload["validation"] = _run_validation(args, apps, models)
        if not payload["validation"]["ok"]:
            status = 1
    if args.json:
        if args.json == "-":
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            print(f"[analyze] wrote {args.json}", file=sys.stderr)
    return status


def _run_validation(args, apps, models) -> dict:
    """Differential predicted-vs-measured gate over the app grid."""
    from repro.lint.validate import validate_apps

    summary = validate_apps(
        apps,
        [m.value for m in models],
        scale=args.scale,
        processors=args.processors,
        level=args.level,
        latency=args.latency,
    )
    print(
        f"[analyze] apps: {len(summary['cells'])} cell(s), "
        f"{len(summary['violations'])} violation(s)",
        file=sys.stderr,
    )
    for violation in summary["violations"]:
        print(
            f"  {violation['invariant']}: {violation['message']}",
            file=sys.stderr,
        )
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Interprocedural static performance prediction: "
        "run-length/switch bounds per switch model, with differential "
        "validation against the simulator.",
    )
    parser.add_argument(
        "apps",
        nargs="*",
        help="applications to analyze (Table 1 names or synth:<seed>)",
    )
    parser.add_argument(
        "--all", action="store_true", help="analyze every Table 1 application"
    )
    parser.add_argument(
        "--model",
        action="append",
        default=[],
        metavar="MODEL",
        help="switch model(s) to predict (repeatable; default: all eight)",
    )
    parser.add_argument(
        "--scale", default="tiny", help="problem scale (default: tiny)"
    )
    parser.add_argument(
        "--processors", type=int, default=2, help="processor count (P)"
    )
    parser.add_argument(
        "--level", type=int, default=2, help="threads per processor (M)"
    )
    parser.add_argument(
        "--latency", type=int, default=200,
        help="memory round-trip latency in cycles (default: 200)",
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="dump predictions (and validation) as JSON "
        "(to stdout with no PATH)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="simulate every cell and gate the static bounds against "
        "measured statistics",
    )
    args = parser.parse_args(argv)
    try:
        return _cmd_analyze(args)
    except BrokenPipeError:  # e.g. `repro-analyze --all | head`
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
