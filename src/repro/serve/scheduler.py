"""Admission control, singleflight coalescing and engine dispatch.

The scheduler is the paper's latency-hiding discipline applied one level
up: many outstanding requests, one busy executor.  Clients submit
:class:`~repro.serve.jobs.Job` batches concurrently; a single worker
thread drains a bounded FIFO queue onto the
:class:`~repro.engine.executor.Engine`, which fans each batch out over
its process pool.  Serializing engine access through one thread is what
makes the (deliberately unsynchronized) engine safe to share between
request handlers.

Three mechanisms keep the server healthy under load:

* **admission control** — a bounded queue depth and an in-flight
  request-byte budget; past either, submission raises
  :class:`AdmissionError` (the HTTP layer turns it into 429/503 with a
  ``Retry-After`` hint) instead of queueing unboundedly;
* **singleflight** — job identity is content-derived, so N concurrent
  submissions of the same spec batch attach to one job: one engine
  execution, N result fan-outs (cache-stampede protection, counted in
  ``serve.jobs.coalesced``);
* **journal recovery** — every admitted job is journaled; on restart the
  journal is replayed through the queue, so finished jobs are re-served
  from the engine's disk cache (zero recomputation) and interrupted jobs
  complete.
"""

from __future__ import annotations

import collections
import itertools
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.engine.executor import Engine
from repro.engine.spec import RunSpec
from repro.obs.metrics import MetricsRegistry, labeled_key
from repro.obs.spans import STAGE_FLOOR, STAGE_HISTOGRAM
from repro.serve.jobs import Job, JobJournal, JobState

#: Counter names registered up front so ``/metrics`` is complete (and
#: stable) from the first scrape, before any traffic arrives.
_COUNTERS = {
    "serve.jobs.submitted": "Jobs admitted to the queue",
    "serve.jobs.coalesced": "Submissions absorbed into an in-flight or finished job",
    "serve.jobs.rejected": "Submissions refused by admission control",
    "serve.jobs.completed": "Jobs finished successfully",
    "serve.jobs.failed": "Jobs finished with an error",
    "serve.jobs.recovered": "Jobs re-enqueued from the journal at startup",
    "serve.specs.resolved": "Individual specs resolved across all jobs",
    "lint.programs_checked": "Specs whose program the checked engine linted",
}


class AdmissionError(RuntimeError):
    """The scheduler refused a submission (full queue, byte budget, or
    draining); carries the HTTP status and a ``Retry-After`` hint."""

    def __init__(self, reason: str, status: int, retry_after: int):
        super().__init__(reason)
        self.reason = reason
        self.status = status
        self.retry_after = retry_after


class JobScheduler:
    """Bounded job queue feeding one :class:`Engine` worker thread.

    :param engine: the (exclusively owned) execution engine; under
        ``Engine(check=True)`` a spec that fails lint or the oracle fails
        its job, and ``/metrics`` reports the engine's lint counts.  Its
        ``timeout`` bounds every run, so a run that never ends fails its
        job with ``DeadlineExceeded`` and the worker moves on.
    :param max_queue_depth: jobs allowed in QUEUED state before 429.
    :param max_inflight_bytes: summed request-body bytes of unfinished
        jobs allowed before 429 (0 disables the budget).
    :param journal: a :class:`JobJournal`, a path, or ``None``.
    :param spans: a :class:`~repro.obs.spans.SpanRecorder` (or ``None``)
        receiving the scheduler-side stages of every traced job —
        admit/coalesce at submission, queue-wait/execute/serialize/
        journal as the worker thread drains it.  A recorder without a
        metrics sink adopts the scheduler's registry, so stage latencies
        surface at ``/metrics``.
    """

    def __init__(
        self,
        engine: Engine,
        max_queue_depth: int = 16,
        max_inflight_bytes: int = 8 * 1024 * 1024,
        journal=None,
        spans=None,
    ):
        self.engine = engine
        self.max_queue_depth = max_queue_depth
        self.max_inflight_bytes = max_inflight_bytes
        if journal is not None and not isinstance(journal, JobJournal):
            journal = JobJournal(journal)
        self.journal = journal
        self.metrics = MetricsRegistry()
        for name, help_text in _COUNTERS.items():
            self.metrics.counter(name, help=help_text)
        self.spans = spans
        if self.spans is not None and self.spans.metrics is None:
            self.spans.metrics = self.metrics
        self.jobs: Dict[str, Job] = {}
        self._queue: collections.deque = collections.deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._inflight_bytes = 0
        self._elapsed: collections.deque = collections.deque(maxlen=16)
        self.draining = False
        self._stopped = False
        #: Set by ``stop(drain=False)``: the running job goes unjournaled.
        self._abandoned = False
        self._idle = threading.Event()
        self._idle.set()
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-scheduler", daemon=True
        )
        self._worker.start()

    # -- admission -------------------------------------------------------------

    def _retry_after(self) -> int:
        """Seconds a rejected client should back off: the queue depth
        times a per-job time estimate (floor 1s).  The estimate is the
        p95 of the ``execute`` stage-latency histogram when span
        recording has populated it — a tail estimate survives a bimodal
        mix of cache hits and cold runs that would drag a mean down —
        and falls back to the recent mean job time (or 1s) before any
        traced job has finished."""
        estimate = 0.0
        if labeled_key(STAGE_HISTOGRAM, {"stage": "execute"}) in self.metrics:
            hist = self.metrics.histogram(
                STAGE_HISTOGRAM, labels={"stage": "execute"}, floor=STAGE_FLOOR
            )
            if hist.count:
                estimate = hist.quantile(0.95)
        if not estimate:
            estimate = (
                sum(self._elapsed) / len(self._elapsed) if self._elapsed else 1.0
            )
        return max(1, round(estimate * (len(self._queue) + 1)))

    def submit(
        self,
        specs,
        nbytes: int = 0,
        trace=None,
    ) -> Tuple[Job, bool]:
        """Admit (or coalesce) a batch; returns ``(job, coalesced)``.

        Coalescing is checked *before* admission control: attaching to an
        existing job creates no new work, so it succeeds even when the
        queue is full — that is the stampede-protection point.

        *trace* is the submitting request's span context (or ``None``);
        an admitted job carries it so queue-wait/execute/serialize spans
        parent under the request.  A coalesced submission records only an
        instant ``coalesce`` span on its *own* trace — the job keeps the
        admitter's.
        """
        job = Job(list(specs), nbytes=nbytes)
        recorder = self.spans
        with self._wake:
            existing = self.jobs.get(job.job_id)
            if existing is not None and existing.state is not JobState.FAILED:
                existing.clients += 1
                self.metrics.counter("serve.jobs.coalesced").inc()
                if recorder is not None:
                    recorder.finish(recorder.start(
                        "coalesce", parent=trace,
                        attributes={"job": existing.job_id,
                                    "clients": existing.clients},
                    ))
                return existing, True
            admit = None
            if recorder is not None:
                admit = recorder.start(
                    "admit", parent=trace,
                    attributes={"job": job.job_id, "specs": job.total,
                                "nbytes": nbytes},
                )
            try:
                if self._stopped or self.draining:
                    self.metrics.counter("serve.jobs.rejected").inc()
                    raise AdmissionError(
                        "server is draining", status=503,
                        retry_after=self._retry_after(),
                    )
                depth = sum(
                    1 for queued in self._queue
                    if self.jobs[queued].state is JobState.QUEUED
                )
                if depth >= self.max_queue_depth:
                    self.metrics.counter("serve.jobs.rejected").inc()
                    raise AdmissionError(
                        f"queue full ({depth} jobs queued)", status=429,
                        retry_after=self._retry_after(),
                    )
                if (
                    self.max_inflight_bytes
                    and nbytes
                    and self._inflight_bytes + nbytes > self.max_inflight_bytes
                ):
                    self.metrics.counter("serve.jobs.rejected").inc()
                    raise AdmissionError(
                        "in-flight byte budget exceeded", status=429,
                        retry_after=self._retry_after(),
                    )
            except AdmissionError as error:
                if admit is not None:
                    admit.set(reason=error.reason)
                    recorder.finish(admit, status="rejected")
                raise
            job.trace = trace
            self._admit(job)
            if admit is not None:
                recorder.finish(admit)
        return job, False

    def _admit(self, job: Job) -> None:
        """Register + enqueue *job*; caller holds the lock."""
        self.jobs[job.job_id] = job
        self._queue.append(job.job_id)
        self._inflight_bytes += job.nbytes
        self.metrics.counter("serve.jobs.submitted").inc()
        self._idle.clear()
        if self.journal is not None:
            self.journal.record_submit(job)
        self._wake.notify()

    def recover(self) -> int:
        """Replay the journal: re-enqueue every job it records (finished
        ones re-serve from the disk cache; interrupted ones complete).
        Returns the number of jobs re-enqueued."""
        if self.journal is None:
            return 0
        recovered = 0
        for record in self.journal.load():
            with self._wake:
                job = Job(record["specs"], nbytes=0)
                if job.job_id in self.jobs:
                    continue
                self._admit(job)
            self.metrics.counter("serve.jobs.recovered").inc()
            recovered += 1
        return recovered

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self.jobs.get(job_id)

    # -- worker ----------------------------------------------------------------

    def _run(self) -> None:
        try:
            while True:
                with self._wake:
                    while not self._queue and not self._stopped:
                        # Admission enqueues under this lock and only
                        # this thread runs jobs, so an empty queue here
                        # means every job has settled.
                        self._idle.set()
                        self._wake.wait()
                    if self._stopped and not self._queue:
                        self._idle.set()
                        return
                    job = self.jobs[self._queue.popleft()]
                self._execute(job)
                with self._lock:
                    self._inflight_bytes -= job.nbytes
                    self._elapsed.append(
                        (job.finished or time.time())
                        - (job.started or job.created)
                    )
        finally:  # here, not in stop(), which need not wait for the worker
            if self.journal is not None:
                self.journal.close()
            self.engine.close()

    def _execute(self, job: Job) -> None:
        recorder = self.spans
        if recorder is not None:
            # Backdated: the wait started the instant the job was admitted.
            recorder.finish(recorder.start(
                "queue-wait", parent=job.trace, start=job.created,
                attributes={"job": job.job_id},
            ))
        job.mark_running()

        def on_progress(event: Dict) -> None:
            job.done += 1
            job.last_label = event.get("label")
            self.metrics.counter("serve.specs.resolved").inc()

        execute = serialize = error = None
        try:
            if recorder is not None:
                execute = recorder.start(
                    "execute", parent=job.trace,
                    attributes={"job": job.job_id, "specs": job.total},
                )
            results = self.engine.run_many(
                job.specs,
                on_error="record",
                progress=on_progress,
                trace=execute.context if execute is not None else None,
            )
            if recorder is not None:
                recorder.finish(execute)
                execute = None
                serialize = recorder.start(
                    "serialize", parent=job.trace,
                    attributes={"job": job.job_id},
                )
            payloads: List[Dict] = []
            for spec, key, result in zip(job.specs, job.keys, results):
                if result is None:
                    error = self.engine.failure(key) or {
                        "type": "EngineRunError",
                        "message": f"{spec.label()}: unknown failure",
                    }
                    break
                self._fold_availability(getattr(result, "stats", None))
                payloads.append(result.to_dict())
            if serialize is not None and error is None:
                recorder.finish(serialize)
                serialize = None
        except Exception as exc:  # noqa: BLE001 — worker must survive
            error = {"type": type(exc).__name__, "message": str(exc)}
        finally:
            # Whichever stage was open when the job failed is the one
            # that failed it.
            for span in (execute, serialize):
                if span is not None:
                    recorder.finish(span, status="error")
        # Journal and count before settling: settling releases every
        # held wait, so a client that has its result finds the job
        # journaled and counted.
        if self.journal is not None and not self._abandoned:
            try:
                if recorder is not None:
                    with recorder.span(
                        "journal", parent=job.trace,
                        attributes={"job": job.job_id},
                    ):
                        self.journal.record_finish(job, error)
                else:
                    self.journal.record_finish(job, error)
            except OSError:  # pragma: no cover - disk full etc.
                pass
        if error is None:
            self.metrics.counter("serve.jobs.completed").inc()
            job.mark_done(payloads)
        else:
            self.metrics.counter("serve.jobs.failed").inc()
            job.mark_failed(error)

    def _fold_availability(self, stats) -> None:
        """Chaos-scenario observability: accumulate each result's
        component-availability ledger into the serve registry, so
        degradation/outage totals can be read straight off ``/metrics``
        (the README walkthrough does exactly that).  Results without a
        ledger — the overwhelmingly common case — cost one truthiness
        check."""
        if not getattr(stats, "component_availability", None):
            return
        self.metrics.counter(
            "serve.lifecycle.failures",
            help="Component hard failures across all served results",
        ).inc(stats.lifecycle_failures)
        self.metrics.counter(
            "serve.lifecycle.repairs",
            help="Component repairs across all served results",
        ).inc(stats.lifecycle_repairs)
        self.metrics.counter(
            "serve.lifecycle.degraded_cycles",
            help="Degraded-service cycles across all served results",
        ).inc(stats.lifecycle_degraded_cycles)
        self.metrics.counter(
            "serve.lifecycle.downtime_cycles",
            help="Outage + repair cycles across all served results",
        ).inc(stats.lifecycle_downtime_cycles)

    # -- lifecycle -------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting and wait for every queued/running job to
        settle; ``True`` when the scheduler went idle in time."""
        with self._wake:
            self.draining = True
            self._wake.notify_all()
        return self._idle.wait(timeout)

    def stop(self, drain: bool = True, timeout: Optional[float] = 30.0) -> bool:
        """Stop the worker, which then closes journal + engine.  With
        *drain*, first wait up to *timeout* for the jobs to settle and
        the worker to exit; without, drop the queue and return at once,
        leaving the running job to finish unjournaled, so a restart's
        :meth:`recover` runs it again."""
        drained = self.drain(timeout) if drain else False
        with self._wake:
            self._stopped = True
            if not drain:
                self._abandoned = True
                self._queue.clear()
            self._wake.notify_all()
        if drain:
            self._worker.join(timeout=timeout)
        return drained

    def metrics_text(self) -> str:
        """The ``/metrics`` body: serve counters plus the engine's
        lifetime counts (its lint counts among them), one Prometheus
        document with stable ordering."""
        report = self.engine.counters()
        for name in ("executed", "cached", "memo_hits", "failed", "deduped"):
            counter = self.metrics.counter(
                f"serve.engine.{name}", help=f"Engine lifetime {name} count"
            )
            counter.value = report[name]
        cycles = self.metrics.counter(
            "serve.engine.simulated_cycles",
            help="Simulated cycles executed by the engine",
        )
        cycles.value = report["simulated_cycles"]
        self.metrics.counter("lint.programs_checked").value = report["linted"]
        for rule, severity, count in report["lint_diagnostics"]:
            self.metrics.counter(
                "lint.diagnostics",
                help="Lint diagnostics found by the checked engine",
                labels={"rule": rule, "severity": severity},
            ).value = count
        return self.metrics.to_prometheus()

    def recent_specs(self, limit: int) -> List[RunSpec]:
        """Up to *limit* specs of distinct labels from the finished jobs
        among the *limit* most recently admitted, newest first.  Reading
        at most *limit* jobs bounds the time spent under the lock, however
        many jobs the table retains."""
        specs: Dict[str, RunSpec] = {}
        with self._lock:
            for job in itertools.islice(reversed(self.jobs.values()), limit):
                if len(specs) >= limit:
                    break
                if job.state is JobState.DONE:
                    for spec in job.specs:
                        specs.setdefault(spec.label(), spec)
        return list(specs.values())[:limit]

    def status_dict(self) -> Dict:
        """The ``/healthz`` scheduler view."""
        with self._lock:
            states: Dict[str, int] = {}
            for job in self.jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            return {
                "status": "draining" if self.draining else "ok",
                "jobs": states,
                "queued": len(self._queue),
                "inflight_bytes": self._inflight_bytes,
                "queue_depth_limit": self.max_queue_depth,
            }
