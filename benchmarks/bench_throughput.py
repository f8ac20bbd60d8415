"""Simulator throughput (simulated cycles per wall-clock second).

Unlike the other ``bench_*`` files, this one measures the *simulator*,
not the simulated machine: how many cycles/sec each execution backend
(:mod:`repro.jit`) sustains across the full application × switch-model
grid.  It is a script, not a pytest module::

    PYTHONPATH=src python benchmarks/bench_throughput.py            # full grid
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick    # CI subset

Each invocation writes one ``BENCH_<backend>.json`` per measured
backend into ``--out-dir`` (``bench-out/`` under the repo root by
default).  The compiled report also records per-cell and geomean
speedups against the committed ``BENCH_interpreter.json`` at the repo
root, read before anything is written, for the cells measured at that
baseline's scale and machine shape.  The baseline was captured once,
before backend optimization work, and stays frozen so speedups are
measured against the interpreter the project started from (see the
EXPERIMENTS throughput appendix).

Each cell times its backends back to back, round by round, and keeps
the best of ``--repeats`` for each, so the live compiled/interpreter
ratio compares runs made seconds apart rather than two grids made
minutes apart.  Each cell also keeps its first repeat as
``first_seconds``: on the compiled backend that is the run that
compiles the cell's code, so the geomean first-run/warm ratio printed
per backend shows what compiling costs.  Within a single invocation
that measures both backends, every cell's ``SimStats`` are additionally
cross-checked for bit-identity — a cheap standing instance of the
equivalence contract pinned for real by
``tests/test_jit_equivalence.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.api import list_apps, list_models
from repro.engine.executor import _build
from repro.engine.spec import RunSpec
from repro.jit import resolve_backend
from repro.runtime.execution import make_simulator

#: The committed, frozen interpreter baseline.
BASELINE = os.path.join(REPO_ROOT, "BENCH_interpreter.json")

#: CI subset: two Table 1 applications plus one fixed synthetic kernel
#: (seeded, so its code is identical on every host — a stable probe of
#: generated-code throughput alongside the hand-written apps).
QUICK_APPS = ("blkmat", "mp3d", "synth:1:dense")


def _measure_cell(
    spec: RunSpec, backends: List[str], repeats: int
) -> Dict[str, Dict[str, object]]:
    """Best-of-*repeats* wall seconds for one (app, model) cell on each
    backend.  Every round times the backends back to back, so a change
    in machine speed during the invocation hits both sides of their
    ratio alike."""
    app, program = _build(
        spec.app, spec.total_threads, spec.effective_code_model.value, spec.scale
    )
    config = spec.machine_config()
    best = {backend: math.inf for backend in backends}
    first: Dict[str, float] = {}
    stats: Dict[str, dict] = {}
    for _ in range(repeats):
        for backend in backends:
            sim = make_simulator(app, config, program=program, backend=backend)
            start = time.perf_counter()
            result = sim.run()
            seconds = time.perf_counter() - start
            first.setdefault(backend, seconds)
            best[backend] = min(best[backend], seconds)
            stats[backend] = result.stats.to_dict()
    cells = {}
    for backend in backends:
        cycles = stats[backend]["wall_cycles"]
        seconds = best[backend]
        cells[backend] = {
            "app": spec.app,
            "model": spec.model,
            "wall_cycles": cycles,
            "seconds": seconds,
            "first_seconds": first[backend],
            "cycles_per_sec": cycles / seconds if seconds > 0 else 0.0,
            "_stats": stats[backend],
        }
    return cells


def _geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_grid(
    backends: List[str],
    apps: List[str],
    models: List[str],
    scale: str,
    processors: int,
    level: int,
    repeats: int,
    verbose: bool = True,
) -> Dict[str, Dict[str, object]]:
    """One report per backend over the same grid, cell by cell."""
    cells: Dict[str, List[Dict]] = {backend: [] for backend in backends}
    for app in apps:
        for model in models:
            spec = RunSpec(
                app=app,
                model=model,
                processors=processors,
                level=level,
                scale=scale,
            )
            for backend, cell in _measure_cell(spec, backends, repeats).items():
                cells[backend].append(cell)
                if verbose:
                    print(
                        f"  {backend:>11s}  {app:>7s} {model:<19s} "
                        f"{cell['wall_cycles']:>9d} cyc  "
                        f"{cell['seconds'] * 1e3:8.2f} ms  "
                        f"{cell['cycles_per_sec'] / 1e6:7.3f} Mcyc/s",
                        flush=True,
                    )
    return {
        backend: {
            "benchmark": "throughput",
            "backend": backend,
            "scale": scale,
            "processors": processors,
            "level": level,
            "repeats": repeats,
            "cells": cells[backend],
            "geomean_cycles_per_sec": _geomean(
                [c["cycles_per_sec"] for c in cells[backend]]
            ),
            "geomean_first_over_warm": _geomean(
                [c["first_seconds"] / c["seconds"] for c in cells[backend]
                 if c["seconds"] > 0]
            ),
        }
        for backend in backends
    }


def _cross_check(reports: Dict[str, Dict]) -> None:
    """Backends must produce bit-identical SimStats per cell."""
    names = sorted(reports)
    if len(names) < 2:
        return
    base = reports[names[0]]
    for other_name in names[1:]:
        other = reports[other_name]
        for ca, cb in zip(base["cells"], other["cells"]):
            if ca["_stats"] != cb["_stats"]:
                raise SystemExit(
                    f"stats mismatch: {ca['app']}/{ca['model']} differs "
                    f"between {names[0]} and {other_name}"
                )
    print("cross-check: SimStats bit-identical across backends")


def _load_baseline(
    scale: str, processors: int, level: int
) -> Dict[Tuple[str, str], float]:
    """Cycles/sec per (app, model) cell of the committed baseline; empty
    when it is missing or was measured at another scale or shape."""
    if not os.path.exists(BASELINE):
        return {}
    with open(BASELINE) as fh:
        baseline = json.load(fh)
    shape = (baseline["scale"], baseline["processors"], baseline["level"])
    if shape != (scale, processors, level):
        return {}
    return {
        (c["app"], c["model"]): c["cycles_per_sec"]
        for c in baseline["cells"]
    }


def _attach_baseline(
    report: Dict, base_cells: Dict[Tuple[str, str], float]
) -> None:
    """Record speedups vs the committed interpreter baseline's cells."""
    if report["backend"] == "interpreter":
        return
    ratios = []
    for cell in report["cells"]:
        ref = base_cells.get((cell["app"], cell["model"]))
        if ref:
            cell["speedup_vs_baseline"] = cell["cycles_per_sec"] / ref
            ratios.append(cell["speedup_vs_baseline"])
    if ratios:
        report["baseline"] = "BENCH_interpreter.json"
        report["geomean_speedup_vs_baseline"] = _geomean(ratios)


def _write(report: Dict, out_dir: str) -> str:
    for cell in report["cells"]:
        cell.pop("_stats", None)
    path = os.path.join(out_dir, f"BENCH_{report['backend']}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"2-app CI subset ({', '.join(QUICK_APPS)}) instead of the full grid",
    )
    parser.add_argument(
        "--backends",
        nargs="+",
        default=["interpreter", "compiled"],
        help="backends to measure (default: both)",
    )
    parser.add_argument("--apps", nargs="+", default=None)
    parser.add_argument("--models", nargs="+", default=None)
    parser.add_argument("--scale", default="small")
    parser.add_argument("--processors", type=int, default=2)
    parser.add_argument("--level", type=int, default=4)
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N per cell"
    )
    parser.add_argument(
        "--out-dir",
        default=os.path.join(REPO_ROOT, "bench-out"),
        help="where BENCH_<backend>.json files land (default: bench-out/ "
        "under the repo root)",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.0,
        help="fail unless compiled/interpreter geomean ratio (measured "
        "in this invocation) is at least this",
    )
    args = parser.parse_args(argv)

    apps = args.apps or (list(QUICK_APPS) if args.quick else list_apps())
    models = args.models or list_models()
    backends = [resolve_backend(b) for b in args.backends]
    base_cells = _load_baseline(args.scale, args.processors, args.level)

    print(f"measuring backends={', '.join(backends)} on "
          f"{len(apps)}x{len(models)} grid (scale={args.scale}, best of "
          f"{args.repeats}, back to back per cell)", flush=True)
    reports = run_grid(
        backends, apps, models, args.scale, args.processors,
        args.level, args.repeats,
    )
    _cross_check(reports)

    os.makedirs(args.out_dir, exist_ok=True)
    for report in reports.values():
        _attach_baseline(report, base_cells)
        path = _write(report, args.out_dir)
        line = (
            f"{report['backend']}: geomean "
            f"{report['geomean_cycles_per_sec'] / 1e6:.3f} Mcyc/s, first run "
            f"{report['geomean_first_over_warm']:.2f}x warm"
        )
        if "geomean_speedup_vs_baseline" in report:
            line += (
                f", {report['geomean_speedup_vs_baseline']:.2f}x vs "
                "committed baseline"
            )
        print(f"{line}  -> {os.path.relpath(path)}")

    if "interpreter" in reports and "compiled" in reports:
        ratio = (
            reports["compiled"]["geomean_cycles_per_sec"]
            / reports["interpreter"]["geomean_cycles_per_sec"]
        )
        print(f"live compiled/interpreter geomean ratio: {ratio:.2f}x")
        if args.min_ratio and ratio < args.min_ratio:
            print(f"FAIL: ratio {ratio:.2f}x < required {args.min_ratio}x")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
