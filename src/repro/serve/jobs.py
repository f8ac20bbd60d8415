"""Job model and crash-safe journal of the simulation service.

A *job* is one admitted batch of :class:`~repro.engine.spec.RunSpec`
points.  Its identity is content-derived — a hash of the sorted spec
keys — so two clients submitting the same work name the same job, which
is what makes singleflight coalescing (and restart re-serving) a lookup
rather than a protocol.

The :class:`JobJournal` appends one JSONL line when a job is admitted
and one when it finishes.  Replaying the journal after a crash or a
restart yields every job the server ever accepted; re-enqueueing them
lets a fresh server re-serve finished results straight from the engine's
content-addressed disk cache (no recomputation) and *complete* jobs that
were accepted but unfinished when the process died.
"""

from __future__ import annotations

import enum
import hashlib
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.engine.spec import RunSpec
from repro.obs.runlog import RunLogWriter, read_runlog


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


def job_id_for(keys: List[str]) -> str:
    """Deterministic job id for a set of spec keys (order-insensitive)."""
    digest = hashlib.sha256("\n".join(sorted(keys)).encode("ascii"))
    return "j" + digest.hexdigest()[:16]


class Job:
    """One admitted batch of specs moving through the scheduler."""

    def __init__(self, specs: List[RunSpec], nbytes: int = 0,
                 timeout: Optional[float] = None):
        self.specs = specs
        self.keys = [spec.key() for spec in specs]
        self.job_id = job_id_for(self.keys)
        self.nbytes = nbytes
        self.timeout = timeout
        self.state = JobState.QUEUED
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        #: Progress: engine events seen / specs in the batch.  Memo and
        #: dedupe hits emit no event, so ``done`` may end below ``total``
        #: on a warm engine — ``state`` is the completion authority.
        self.done = 0
        self.total = len(specs)
        self.last_label: Optional[str] = None
        #: Submissions coalesced into this job (1 = the admitting one).
        self.clients = 1
        #: Trace context of the admitting request (a
        #: :class:`~repro.obs.spans.SpanContext` or ``None``).  Coalesced
        #: submissions keep the admitter's trace — one job, one trace.
        self.trace = None
        self.error: Optional[Dict] = None
        self.results: Optional[List[Dict]] = None
        self._event = threading.Event()

    # -- state transitions (scheduler-owned) -----------------------------------

    def mark_running(self) -> None:
        self.state = JobState.RUNNING
        self.started = time.time()

    def mark_done(self, results: List[Dict]) -> None:
        self.results = results
        self.state = JobState.DONE
        self.finished = time.time()
        self._event.set()

    def mark_failed(self, error: Dict) -> None:
        self.error = error
        self.state = JobState.FAILED
        self.finished = time.time()
        self._event.set()

    # -- waiting ---------------------------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes (either way); ``True`` if it did."""
        return self._event.wait(timeout)

    @property
    def settled(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED)

    # -- views -----------------------------------------------------------------

    def status_dict(self) -> Dict:
        """The ``GET /v1/jobs/<id>`` payload."""
        out = {
            "job": self.job_id,
            "state": self.state.value,
            "specs": self.total,
            "done": self.done,
            "clients": self.clients,
            "created": round(self.created, 3),
            "labels": [spec.label() for spec in self.specs[:8]],
        }
        if self.started is not None:
            out["started"] = round(self.started, 3)
        if self.finished is not None:
            out["finished"] = round(self.finished, 3)
            out["elapsed"] = round(self.finished - (self.started or self.created), 3)
        if self.last_label is not None:
            out["last"] = self.last_label
        if self.error is not None:
            out["error"] = self.error
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Job {self.job_id} {self.state.value} {self.done}/{self.total}>"


class JobJournal:
    """Append-only JSONL record of admitted and finished jobs.

    Entries (reusing the crash-tolerant :class:`RunLogWriter` — one
    flush per line, torn tails skipped on read):

    .. code-block:: json

        {"event": "submit", "job": "j5b3c...", "ts": 1754515200.1,
         "specs": [{"app": "sieve", ...}]}
        {"event": "finish", "job": "j5b3c...", "state": "done", "ts": ...}
    """

    def __init__(self, path):
        self.path = Path(path)
        self._writer: Optional[RunLogWriter] = None
        self._lock = threading.Lock()

    def _append(self, entry: Dict) -> None:
        with self._lock:
            if self._writer is None:
                self._writer = RunLogWriter(self.path)
            self._writer.append(entry)

    def record_submit(self, job: Job) -> None:
        self._append(
            {
                "event": "submit",
                "job": job.job_id,
                "ts": round(time.time(), 3),
                "specs": [spec.to_dict() for spec in job.specs],
            }
        )

    def record_finish(self, job: Job, error: Optional[Dict]) -> None:
        """Journal *job*'s outcome: done, or failed with *error*.  The
        record is written before the job settles, so the outcome is an
        argument rather than the job's state."""
        entry = {
            "event": "finish",
            "job": job.job_id,
            "state": (JobState.DONE if error is None else JobState.FAILED).value,
            "ts": round(time.time(), 3),
        }
        if error is not None:
            entry["error"] = error
        self._append(entry)

    def close(self) -> None:
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None

    def load(self) -> List[Dict]:
        """Replay the journal into one record per job (submission order,
        duplicates collapsed, last finish state wins)::

            {"job": id, "specs": [RunSpec, ...], "state": "queued"|...}

        Jobs whose ``submit`` line is missing or unparseable are skipped
        — the journal is an optimization, never a correctness gate.
        """
        try:
            entries = read_runlog(self.path)
        except OSError:
            return []
        records: Dict[str, Dict] = {}
        order: List[str] = []
        for entry in entries:
            job_id = entry.get("job")
            if not job_id:
                continue
            if entry.get("event") == "submit":
                try:
                    specs = [RunSpec.from_dict(d) for d in entry["specs"]]
                except (KeyError, TypeError, ValueError):
                    continue
                if job_id not in records:
                    order.append(job_id)
                records[job_id] = {
                    "job": job_id,
                    "specs": specs,
                    "state": JobState.QUEUED.value,
                }
            elif entry.get("event") == "finish" and job_id in records:
                records[job_id]["state"] = entry.get("state", JobState.DONE.value)
        return [records[job_id] for job_id in order]
