"""The ``serve-cold`` and ``serve-warm`` workloads: ``repro-serve`` under
closed-loop load.

The server under test is its own ``python -m repro.serve.cli serve``
process.  Load comes from :data:`~common.CLIENTS` threads of this
process, each a closed loop, because sweep scripts wait for a result
before sending the next job: ``Client.submit``, then
``Client.wait(poll=0.005)``, then ``Client.result(wait=False)``.  The
default 50 ms poll would round every latency up to 50 ms.  Latency runs
from submit to result in hand.  A rejection, an HTTP error, a timeout or
a wrong result is a failed operation.  Nothing calls ``/healthz`` or
``/metrics`` while load is running.

* ``serve-cold``: an empty cache dir.  Every job is one new
  ``synth:<seed>:<preset>`` kernel, presets cycling default/dense/
  branchy/sync and models cycling over all eight, so each job pays
  build, predict, simulate, cache write and journal.  After the window
  a deterministic 1-in-16 sample is re-simulated with ``repro.sweep``
  and must match what was served.
* ``serve-warm``: a fill server first simulates a 224-spec pool (7 apps
  x 8 models x levels 1/2/4/8, P=2, scale tiny) into the cache dir.  The
  measured server is a fresh process on that dir with a fresh journal,
  so it starts with no replay backlog.  Jobs are seeded random 8-spec
  batches from the pool, and every served ``stats`` must equal the
  fill-time capture.  The engine memoises every result it resolves, so
  each pool spec is read from disk once, mostly during the warm-up;
  inside the window nearly every lookup is a memo hit.
"""

from __future__ import annotations

import collections
import itertools
import json
import random
import re
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from common import (
    CLIENTS, ROOT, Outcome, Scratch, import_repro, layer_metrics, log, mean,
    percentile, union_seconds,
)

#: Server spawns timed per run for ``setup_s``; the last one is loaded.
SETUP_REPEATS = 5
#: The window is cut into this many equal slices and each end-to-end
#: number drops the best and the worst slice, so a few seconds of
#: interference from other tenants of the host move it less.
SLICES = 5
POLL = 0.005
JOB_TIMEOUT = 30.0
#: One served result in 16 is re-simulated locally: every 16th
#: serve-cold job, and a seeded sample of the serve-warm pool.
SAMPLE_EVERY = 16
PRESETS = ("default", "dense", "branchy", "sync")
LEVELS = (1, 2, 4, 8)
BATCH = 8
#: Specs whose cold static prediction ``lint.predict_ms`` times.
PREDICT_SAMPLE = 16
#: ``peak_rss_mb`` is the server's ``VmHWM`` when this job (counted from
#: the start of the warm-up) completes.  A server keeps every job it
#: served, so its memory grows with the jobs served, and a fixed count
#: keeps the host's speed out of the number.  A run that does not reach
#: it (a 2 s ``--smoke`` window) reads at the window's end.
RSS_AT_JOB = 256


class ServerFailed(RuntimeError):
    pass


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro-serve serve`` process.  ``setup_s`` is the CPU time
    its threads have run when the first ``/healthz`` 200 arrives: what
    starting costs, without the waits for the scheduler and for the
    probe's next poll that the wall time from spawn would count."""

    def __init__(self, scratch: Scratch, name: str, cache_dir: Path,
                 workers: int = 1, spans: Optional[Path] = None):
        from repro.serve.client import Client

        port = free_port()
        self.url = f"http://127.0.0.1:{port}"
        cmd = [
            sys.executable, "-m", "repro.serve.cli", "serve",
            "--host", "127.0.0.1", "--port", str(port),
            "--cache-dir", str(cache_dir),
            "--journal", str(scratch / f"{name}-journal.jsonl"),
            "--workers", str(workers), "--quiet",
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.log_path = scratch / f"{name}.log"
        self._log = open(self.log_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT,
            env=scratch.env(), cwd=ROOT,
        )
        probe = Client(self.url, timeout=5.0)
        try:
            while True:
                try:
                    probe.health()
                    break
                except OSError:
                    if self.proc.poll() is not None or time.perf_counter() - start > 60:
                        raise ServerFailed(
                            "server did not come up: "
                            + self.log_path.read_text(errors="replace")[-400:]
                        ) from None
                    time.sleep(0.002)
            self.setup_s = self.cpu_seconds()
        except BaseException:
            self.stop()
            raise

    def cpu_seconds(self) -> float:
        """CPU time run so far by the server's live threads, from the
        nanosecond counters of ``/proc/PID/task/*/schedstat``."""
        total = 0
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                pass  # the thread ended while we looked
        return total / 1e9

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1)) / 1024.0

    def stop(self) -> None:
        """SIGTERM (the server drains gracefully) and wait for exit."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class JobRecord:
    """One closed-loop operation as the client saw it."""

    __slots__ = (
        "index", "specs", "in_window", "start", "end", "latency", "ok",
        "error", "sample", "submit_s", "wait_s", "result_s", "polls",
        "result_kb", "trace", "cycles",
    )

    def __init__(self, index: int, specs: List):
        self.index = index
        self.specs = specs
        self.ok = False
        self.error: Optional[str] = None
        self.sample = None
        self.polls = 0
        self.trace: Optional[str] = None


def drive(url: str, workload, warmup: float, seconds: float, traced: bool,
          on_done: Optional[Callable[[JobRecord], None]] = None) -> List[JobRecord]:
    """Run the closed loops for ``warmup + seconds``; returns every job,
    those submitted inside the measured window flagged ``in_window``.
    *on_done* is called with each job as it ends, on its client thread."""
    from repro.serve.client import Client

    lock = threading.Lock()
    counter = itertools.count()
    records: List[JobRecord] = []
    begin = time.monotonic()
    window_start, window_end = begin + warmup, begin + warmup + seconds

    def loop() -> None:
        client = Client(url, timeout=JOB_TIMEOUT)
        polls = 0
        if traced:
            status = client.status

            def counted(job):
                nonlocal polls
                polls += 1
                return status(job)

            client.status = counted
        mine = []
        while True:
            submitted = time.monotonic()
            if submitted >= window_end:
                break
            with lock:
                index = next(counter)
            record = JobRecord(index, workload.specs(index))
            record.in_window = submitted >= window_start
            polls = 0
            record.start = time.time()
            t0 = time.perf_counter()
            try:
                accepted = client.submit(record.specs)
                t1 = time.perf_counter()
                client.wait(accepted, timeout=JOB_TIMEOUT, poll=POLL)
                t2 = time.perf_counter()
                results = client.result(accepted, wait=False)
                t3 = time.perf_counter()
                record.end = time.time()
                record.latency = t3 - t0
                record.ok = workload.check(record, results)
                if traced:
                    record.submit_s, record.wait_s, record.result_s = t1 - t0, t2 - t1, t3 - t2
                    record.polls = polls
                    record.trace = accepted.get("trace")
                    record.result_kb = len(json.dumps(results, separators=(",", ":"))) / 1024.0
                    record.cycles = [result["wall_cycles"] for result in results]
            except Exception as error:  # noqa: BLE001 - a failed operation; keep loading
                record.error = f"{type(error).__name__}: {error}"
                time.sleep(0.01)
            mine.append(record)
            if on_done is not None:
                on_done(record)
        with lock:
            records.extend(mine)

    threads = [threading.Thread(target=loop, name=f"client-{n}") for n in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort(key=lambda record: record.index)
    return records


class ColdWorkload:
    """Every job one never-seen synthetic kernel on an empty cache."""

    def __init__(self, seed: int, scratch: Scratch):
        from repro.api import list_models

        self.seed = seed
        self.scratch = scratch
        self.models = list_models()

    def prepare(self, outcome: Outcome) -> None:
        pass

    def cache_dir(self, tag) -> Path:
        return self.scratch / f"cache-{tag}"  # fresh per server

    def specs(self, index: int) -> List:
        from repro.engine.spec import RunSpec

        kernel = random.Random(self.seed * 1_000_003 + index).getrandbits(32)
        preset = PRESETS[index % len(PRESETS)]
        model = self.models[(index // len(PRESETS)) % len(self.models)]
        return [RunSpec.create(f"synth:{kernel}:{preset}", model=model,
                               processors=2, level=2, scale="tiny")]

    def check(self, record: JobRecord, results: List[Dict]) -> bool:
        if len(results) != 1 or "stats" not in results[0]:
            return False
        if record.index % SAMPLE_EVERY == 0:
            record.sample = served(results[0])
        return True

    def verify(self, outcome: Outcome, records: List[JobRecord]) -> None:
        """Re-simulate the sampled jobs locally; a mismatch fails the job."""
        from repro.api import sweep

        sampled = [record for record in records if record.sample is not None]
        local = sweep([record.specs[0] for record in sampled])
        wrong = 0
        for record, result in zip(sampled, local):
            if served(result.to_dict()) != record.sample:
                record.ok = False
                record.error = f"served result differs from repro.sweep: {record.specs[0].label()}"
                wrong += 1
        outcome.gate("resimulate", bool(sampled) and not wrong,
                     f"{wrong} of {len(sampled)} sampled jobs differ")


class WarmWorkload:
    """Seeded 8-spec batches from a pool already in the result cache."""

    def __init__(self, seed: int, scratch: Scratch):
        from repro.api import list_apps, list_models
        from repro.engine.spec import RunSpec

        self.seed = seed
        self.scratch = scratch
        self.pool = [
            RunSpec.create(app, model=model, processors=2, level=level, scale="tiny")
            for app in list_apps() for model in list_models() for level in LEVELS
        ]
        self.expected: Dict = {}

    def prepare(self, outcome: Outcome) -> None:
        """Simulate the pool through a fill server and capture its
        results; a seeded sample of them must match ``repro.sweep``."""
        from repro.api import sweep
        from repro.serve.client import Client

        with Server(self.scratch, "fill", self.cache_dir("fill"), workers=2) as fill:
            client = Client(fill.url, timeout=120.0)
            results = client.result(client.submit(self.pool), timeout=120.0)
        self.expected = {spec: served(result) for spec, result in zip(self.pool, results)}
        outcome.gate("fill", len(results) == len(self.pool),
                     f"fill returned {len(results)} of {len(self.pool)} results")
        sample = random.Random(self.seed).sample(self.pool, len(self.pool) // SAMPLE_EVERY)
        wrong = sum(
            1 for spec, result in zip(sample, sweep(sample))
            if served(result.to_dict()) != self.expected.get(spec)
        )
        outcome.gate("fill-resimulate", not wrong,
                     f"{wrong} of {len(sample)} filled results differ from repro.sweep")

    def cache_dir(self, tag) -> Path:
        return self.scratch / "cache"  # the filled one, always

    def specs(self, index: int) -> List:
        return random.Random(self.seed * 1_000_003 + index).sample(self.pool, BATCH)

    def check(self, record: JobRecord, results: List[Dict]) -> bool:
        return len(results) == len(record.specs) and all(
            self.expected[spec] == served(result)
            for spec, result in zip(record.specs, results)
        )

    def verify(self, outcome: Outcome, records: List[JobRecord]) -> None:
        wrong = sum(1 for record in records if record.error is None and not record.ok)
        outcome.gate("fill-capture", bool(records) and not wrong,
                     f"{wrong} job(s) served stats that differ from the fill")


def served(payload: Dict):
    """The compared part of a result payload, as it reads after JSON."""
    return json.loads(json.dumps([payload["wall_cycles"], payload["stats"]]))


def window(outcome: Outcome, workload, records: List[JobRecord]) -> List[JobRecord]:
    """Check a load run; returns its OK jobs submitted in the window."""
    workload.verify(outcome, records)
    measured = [record for record in records if record.in_window]
    failed = [record for record in records if not record.ok]
    outcome.attempted += len(measured)
    outcome.failed += sum(1 for record in measured if not record.ok)
    outcome.gate("no-failed-jobs", not failed,
                 f"{len(failed)} failed, first: {failed[0].error if failed else ''}")
    return [record for record in measured if record.ok]


def run(outcome: Outcome, seed: int, seconds: float, trace: bool, probe) -> None:
    import_repro()
    workload_cls = ColdWorkload if outcome.workload == "serve-cold" else WarmWorkload
    warmup = min(3.0, seconds / 3.0)
    with Scratch(outcome.workload) as scratch:
        workload = workload_cls(seed, scratch)
        workload.prepare(outcome)
        if trace:
            traced(outcome, workload, scratch, warmup, seconds, probe)
            return
        setups = []
        start = time.monotonic()
        for attempt in range(SETUP_REPEATS):
            server = Server(scratch, f"measured-{attempt}", workload.cache_dir(attempt))
            setups.append(server.setup_s)
            if attempt < SETUP_REPEATS - 1:
                server.stop()
        setup_s = statistics.median(setups) * probe.scale(start, time.monotonic())
        rss: Dict[str, float] = {}

        def sample_rss(record: JobRecord) -> None:
            if record.index == RSS_AT_JOB:
                rss["mb"] = server.peak_rss_mb()

        with server:
            records = drive(server.url, workload, warmup, seconds, traced=False,
                            on_done=sample_rss)
            rss.setdefault("mb", server.peak_rss_mb())
        done = window(outcome, workload, records)
    p50, p90, rate = sliced(done, seconds, probe)
    log(f"{outcome.workload}: {len(done)} jobs in {seconds:g}s")
    outcome.metrics.update({
        "job_p50_ms": 1e3 * p50,
        "job_p90_ms": 1e3 * p90,
        "jobs_per_s": rate,
        "peak_rss_mb": rss["mb"],
        "setup_s": setup_s,
    })


def window_scale(done: List[JobRecord], seconds: float, probe) -> float:
    """The probe's scale over the window that *done* was submitted in."""
    # Job start times are wall-clock (spans use them); the probe's are monotonic.
    origin = min(record.start for record in done) + time.monotonic() - time.time()
    return probe.scale(origin, origin + seconds)


def sliced(done: List[JobRecord], seconds: float, probe):
    """p50 and p90 latency (s) and completed jobs per second at
    reference speed, each the mean over the middle three of
    :data:`SLICES` equal slices of the window, so the best and the
    worst slice do not count."""
    origin = min(record.start for record in done)
    width = seconds / SLICES
    slices: List[List[float]] = [[] for _ in range(SLICES)]
    for record in done:
        slices[min(SLICES - 1, int((record.start - origin) / width))].append(record.latency)
    scale = window_scale(done, seconds, probe)

    def middle(values) -> float:
        return mean(sorted(values)[1:-1])

    return (
        scale * middle(percentile(part, 50) for part in slices),
        scale * middle(percentile(part, 90) for part in slices),
        middle(len(part) / width for part in slices) / scale,
    )


def traced(outcome: Outcome, workload, scratch: Scratch, warmup: float,
           seconds: float, probe) -> None:
    """An untraced reference window, then a window against a server
    recording spans; per-layer numbers come from the traced one."""
    from repro.obs.spans import read_spans_jsonl
    from repro.serve.client import Client

    with Server(scratch, "reference", workload.cache_dir("reference")) as server:
        plain = window(outcome, workload,
                       drive(server.url, workload, warmup, seconds, traced=False))
    span_log = scratch / "spans.jsonl"
    with Server(scratch, "traced", workload.cache_dir("traced"), spans=span_log) as server:
        jobs = window(outcome, workload,
                      drive(server.url, workload, warmup, seconds, traced=True))
        client = Client(server.url, timeout=120.0)
        exposition = client.metrics()
        start = time.perf_counter()
        health = client.health()
        summary_s = time.perf_counter() - start
    by_trace = collections.defaultdict(list)
    for span in read_spans_jsonl(span_log):
        by_trace[span.trace_id].append(span)
    spans = [span for job in jobs for span in by_trace[job.trace]]
    metrics = layer_metrics(spans)

    cycles = 0
    inside = []
    for job in jobs:
        simulated = {
            span.attributes.get("spec") for span in by_trace[job.trace]
            if span.name == "simulate" and span.attributes
        }
        cycles += sum(
            count for spec, count in zip(job.specs, job.cycles)
            if spec.label() in simulated
        )
        inside.append(union_seconds(
            ((span.start, span.end) for span in by_trace[job.trace]),
            job.start, job.end,
        ))
    lookups = collections.Counter(
        (span.attributes or {}).get("outcome")
        for span in spans if span.name == "cache-lookup"
    )
    e2e = [job.end - job.start for job in jobs]
    metrics.update({
        "sim.cycles": cycles,
        "sim.mcyc_per_s": cycles / metrics["sim.run_s"] / 1e6 if metrics["sim.run_s"] else 0.0,
        "lint.predict_ms": cold_predict_ms(jobs),
        "report.summary_s": summary_s,
        "report.predict_keys": len(health["engine"]["predicted"]),
        "engine.runs": lookups["hit"] + lookups["miss"],
        "engine.memo_hits": lookups["memo"],
        "engine.failed": sum(
            1 for span in spans if span.name == "dispatch" and span.status != "ok"
        ),
        "harness.self_s": 0.0,
        "serve.rejected": prometheus_value(exposition, "serve_jobs_rejected_total"),
        "serve.coalesced": prometheus_value(exposition, "serve_jobs_coalesced_total"),
        "serve.jobs_retained": sum(health["jobs"].values()),
        "client.submit_ms": 1e3 * mean(job.submit_s for job in jobs),
        "client.wait_ms": 1e3 * mean(job.wait_s for job in jobs),
        "client.result_ms": 1e3 * mean(job.result_s for job in jobs),
        "client.polls_per_job": mean(job.polls for job in jobs),
        "client.result_kb": mean(job.result_kb for job in jobs),
        "client.outside_server_ms": 1e3 * mean(t - i for t, i in zip(e2e, inside)),
        "obs.span_coverage": mean(i / t for t, i in zip(e2e, inside)),
        "obs.trace_overhead_frac": (
            percentile([job.latency for job in jobs], 50) * window_scale(jobs, seconds, probe)
            / (percentile([job.latency for job in plain], 50)
               * window_scale(plain, seconds, probe)) - 1.0
        ),
    })
    outcome.metrics.update(metrics)


def cold_predict_ms(jobs: List[JobRecord]) -> float:
    """Mean cost of one uncached static prediction, over the first
    distinct specs the window served (the scheduler's arguments to
    ``predict_spec_cached``, called through its ``__wrapped__``)."""
    from repro.lint import predict_spec_cached

    specs = list(dict.fromkeys(spec for job in jobs for spec in job.specs))[:PREDICT_SAMPLE]
    start = time.perf_counter()
    for spec in specs:
        predict_spec_cached.__wrapped__(
            spec.app, spec.model, spec.processors, spec.level, spec.scale,
            spec.effective_latency, spec.machine_config().forced_switch_interval,
            spec.effective_code_model.value,
        )
    return 1e3 * (time.perf_counter() - start) / len(specs) if specs else 0.0


def prometheus_value(exposition: str, name: str) -> float:
    match = re.search(rf"^{re.escape(name)} (\S+)$", exposition, re.M)
    return float(match.group(1)) if match else 0.0
