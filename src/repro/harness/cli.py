"""``repro-bench`` — regenerate the paper's tables and figures.

Examples::

    repro-bench table2                    # run-length distributions, small scale
    repro-bench table5 --scale medium
    repro-bench all --workers 8           # every table/figure, fanned out
    repro-bench figure3 --processors 8
    repro-bench table2 --json results.json
    repro-bench ablations --no-cache

Completed simulations persist to an on-disk cache (``~/.cache/repro`` or
``--cache-dir``), keyed by configuration *and* code version, so repeated
and interrupted invocations resume instantly; ``--no-cache`` disables
persistence.  ``--workers N`` runs each sweep across N worker processes
— the rendered output is byte-identical to a serial run.
"""

from __future__ import annotations

import argparse
import enum
import json
import sys
import time
from typing import Dict, List

from repro.engine.cache import ResultCache, default_cache_dir
from repro.engine.executor import Engine, stderr_progress
from repro.faults.cliargs import add_fault_arguments, fault_config_from_args
from repro.harness.cliargs import add_backend_argument, add_check_argument
from repro.harness.context import ExperimentContext
from repro.harness.tables import ALL_TABLES
from repro.harness.figures import ALL_FIGURES
from repro.harness.ablations import ALL_ABLATIONS


def _targets() -> List[str]:
    return (
        sorted(ALL_TABLES)
        + sorted(ALL_FIGURES)
        + sorted(ALL_ABLATIONS)
        + ["ablations", "all"]
    )


def _jsonify(value):
    """Best-effort conversion of generator data to JSON-native types
    (float/enum dictionary keys, tuples, graphs...)."""
    if isinstance(value, dict):
        return {
            (key.value if isinstance(key, enum.Enum) else str(key)): _jsonify(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple, set)):
        return [_jsonify(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate tables/figures from Boothe & Ranade (ISCA 1992).",
    )
    parser.add_argument(
        "target",
        nargs="?",
        choices=_targets(),
        help="what to regenerate",
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="list the execution backends (repro.jit) and exit",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=("tiny", "small", "medium", "bench"),
        help="problem-size scale (default: small)",
    )
    parser.add_argument(
        "--processors",
        type=int,
        default=2,
        help="processor count for the multithreading-level tables",
    )
    parser.add_argument(
        "--latency", type=int, default=200, help="round-trip latency in cycles"
    )
    parser.add_argument(
        "--apps",
        nargs="+",
        default=None,
        metavar="APP",
        help="restrict every table/figure to these applications (Table 1 "
        "names or synth:<seed>[:<preset>] kernels; default: all seven)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sweep execution (default: 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=f"result-cache directory (default: {default_cache_dir()})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="results.json",
        default=None,
        metavar="PATH",
        help="also write structured results + engine report as JSON "
        "(default path: results.json)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-run progress lines on stderr",
    )
    add_backend_argument(parser)
    add_check_argument(parser)
    add_fault_arguments(parser)
    args = parser.parse_args(argv)

    if args.list_backends:
        from repro.api import backends

        for info in backends():
            marker = "*" if info["default"] else " "
            print(f"{marker} {info['name']:<12s} {info['description']}")
        print("(* = default; backends produce bit-identical results)")
        return 0
    if args.target is None:
        parser.error("target is required (or use --list-backends)")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    try:
        faults = fault_config_from_args(args, args.latency)
    except ValueError as error:
        parser.error(str(error))
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    engine = Engine(
        workers=args.workers,
        cache=cache,
        progress=None if args.quiet else stderr_progress,
        check=args.check,
        backend=args.backend,
    )
    ctx = ExperimentContext(
        scale=args.scale,
        latency=args.latency,
        processors=args.processors,
        engine=engine,
        faults=faults,
        apps=args.apps,
    )

    if args.target == "all":
        names = sorted(ALL_TABLES) + sorted(ALL_FIGURES) + list(ALL_ABLATIONS)
    elif args.target == "ablations":
        names = list(ALL_ABLATIONS)
    else:
        names = [args.target]

    targets_out: Dict[str, Dict] = {}
    try:
        for name in names:
            start = time.time()
            if name in ALL_TABLES:
                text, data = ALL_TABLES[name](ctx)
            elif name in ALL_FIGURES:
                text, data = ALL_FIGURES[name](ctx)
            else:
                text, data = ALL_ABLATIONS[name](ctx)
            elapsed = time.time() - start
            print(text)
            print()
            # Timing is run-dependent noise — keep stdout byte-identical
            # across worker counts and cache states.
            print(f"[{name}: {elapsed:.1f}s]", file=sys.stderr)
            targets_out[name] = {
                "text": text,
                "data": _jsonify(data),
                "seconds": round(elapsed, 3),
            }
        print(engine.summary_line(), file=sys.stderr)
        if engine.runlog_path is not None:
            print(f"[engine] run log: {engine.runlog_path}", file=sys.stderr)
        if args.json:
            document = {
                "target": args.target,
                "options": {
                    "scale": args.scale,
                    "processors": args.processors,
                    "latency": args.latency,
                    "workers": args.workers,
                    "backend": args.backend,
                    "cache": not args.no_cache,
                    "check": args.check,
                    "faults": faults.to_dict() if faults is not None else None,
                },
                "targets": targets_out,
                "engine": engine.report(),
            }
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2)
            print(f"[engine] wrote {args.json}", file=sys.stderr)
    finally:
        ctx.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
