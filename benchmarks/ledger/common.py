"""Shared plumbing of the performance ledger: locating the source tree,
scratch space, timed child processes, quantiles and span arithmetic.

Nothing here imports :mod:`repro`; the workload modules do, after
:func:`import_repro` has put this checkout's ``src`` first on the path.
"""

from __future__ import annotations

import collections
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Closed-loop client threads driving a server: the 2 cores of the
#: reference machine, so load never outnumbers the processors.
CLIENTS = 2


def pin_to_reference_cpus() -> List[int]:
    """Restrict this process, and so every process it starts, to as many
    of its CPUs as the reference machine has (:data:`CLIENTS`); returns
    them.  On the reference machine this changes nothing."""
    cpus = sorted(os.sched_getaffinity(0))[:CLIENTS]
    os.sched_setaffinity(0, cpus)
    return cpus


class SourceMissing(RuntimeError):
    """The checkout has no ``src/repro`` package to benchmark."""


def load_benchmark() -> Dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units() -> Dict[str, str]:
    """Every metric name in ``BENCHMARK.json`` mapped to its unit."""
    bench = load_benchmark()
    return {
        entry["name"]: entry["unit"]
        for entry in bench["end_to_end"] + bench["per_layer"]
    }


def import_repro():
    """Import :mod:`repro` from this checkout (never from anywhere else
    on ``sys.path``); raises :class:`SourceMissing` without a source tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SourceMissing(f"repro imported from {repro.__file__}, not {SRC}")
    return repro


class Scratch:
    """A private scratch directory inside the checkout, removed on exit.

    Child processes get ``REPRO_CACHE_DIR`` pointed in here so nothing
    they do reaches the user's default cache."""

    def __init__(self, tag: str):
        self.path = ROOT / ".ledger_tmp" / f"{tag}-{os.getpid()}"

    def __enter__(self) -> "Scratch":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def __truediv__(self, name: str) -> Path:
        return self.path / name

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        # Children import with bytecode caches, as installed programs do.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(self.path / "default-cache")
        return env


class Timed(NamedTuple):
    """Outcome of :func:`run_timed`."""

    start: float
    wall: float
    cpu: float
    returncode: int
    maxrss_kb: int

    @property
    def end(self) -> float:
        return self.start + self.wall


def run_timed(
    cmd: List[str], stdout: Path, stderr: Path, env: Dict[str, str],
    timeout: float, cpu: Optional[int] = None,
) -> Timed:
    """Run *cmd* to completion with output in files, pinned to *cpu* if
    given; returns its spawn instant (``time.monotonic``), its wall time
    (spawn to reap), its own CPU time (user + system) and its own peak
    RSS.  Killed past *timeout*."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        if cpu is not None:
            try:
                os.sched_setaffinity(proc.pid, {cpu})
            except ProcessLookupError:
                pass  # already exited; the wait below reaps it
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Timed(start, wall, usage.ru_utime + usage.ru_stime, proc.returncode,
                 usage.ru_maxrss)


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (0 < q <= 100); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Outcome:
    """What one workload run produced: operation counts, correctness
    gates and metrics (name -> value; units come from BENCHMARK.json)."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.gates: List[str] = []
        self.errors: List[str] = []

    def gate(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record that correctness gate *name* ran, and whether it held."""
        self.gates.append(name)
        if not ok:
            self.errors.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def correct(self) -> bool:
        return bool(self.gates) and not self.errors

    def document(self, units: Dict[str, str]) -> Dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in self.metrics.items()
            },
        }


# -- span arithmetic -----------------------------------------------------------


def union_seconds(intervals: Iterable, lo: float, hi: float) -> float:
    """Length of the union of ``(start, end)`` *intervals* clipped to
    ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def layer_metrics(spans) -> Dict[str, float]:
    """Per-layer numbers from finished :class:`repro.obs.spans.Span`
    objects of one process's recorder.  A layer that recorded nothing
    reads 0.  Self time is a span minus the union of its children."""
    by_name = collections.defaultdict(list)
    kids = collections.defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        kids[span.parent_id].append(span)

    def total(name: str) -> float:
        return sum(span.duration for span in by_name[name])

    def mean_ms(name: str) -> float:
        return 1e3 * mean(span.duration for span in by_name[name])

    def self_seconds(span) -> float:
        children = ((kid.start, kid.end) for kid in kids[span.span_id])
        return span.duration - union_seconds(children, span.start, span.end)

    compile_s = total("jit-compile")
    simulate_s = total("simulate")
    admits = {span.parent_id: span.duration for span in by_name["admit"]}
    waits = [1e3 * span.duration for span in by_name["queue-wait"]]
    return {
        "sim.run_s": total("run") - compile_s,
        "sim.simulate_self_s": sum(map(self_seconds, by_name["simulate"])),
        "jit.compile_s": compile_s,
        "jit.compile_runs": len(by_name["jit-compile"]),
        "jit.compile_share": compile_s / simulate_s if simulate_s else 0.0,
        "build.s": total("build"),
        "build.count": len(by_name["build"]),
        "build.ms": mean_ms("build"),
        "engine.cache_lookup_ms": mean_ms("cache-lookup"),
        "engine.deserialize_ms": mean_ms("deserialize"),
        "engine.execute_self_ms": 1e3 * mean(map(self_seconds, by_name["execute"])),
        "serve.http_ms": 1e3 * mean(
            span.duration - admits.get(span.span_id, 0.0)
            for span in by_name["http"]
        ),
        "serve.admit_ms": mean_ms("admit"),
        "serve.queue_wait_p50_ms": percentile(waits, 50),
        "serve.queue_wait_p99_ms": percentile(waits, 99),
        "serve.serialize_ms": mean_ms("serialize"),
        "serve.journal_ms": mean_ms("journal"),
    }


def root_seconds(spans) -> float:
    """Summed duration of the spans whose parent was not recorded — the
    top of each tree, so nested work is counted once."""
    ids = {span.span_id for span in spans}
    return sum(span.duration for span in spans if span.parent_id not in ids)


def log(message: str) -> None:
    print(f"[ledger] {message}", file=sys.stderr, flush=True)


def remaining(deadline: Optional[float], cap: float) -> float:
    """Seconds left before *deadline* (a ``time.monotonic`` instant),
    capped at *cap*; at least one second."""
    if deadline is None:
        return cap
    return max(1.0, min(cap, deadline - time.monotonic()))
