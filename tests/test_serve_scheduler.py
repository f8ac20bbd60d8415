"""Scheduler-level serve tests: admission, singleflight, journal, drain."""

import threading
import time

import pytest

from repro.engine import Engine, RunSpec
from repro.serve import (
    AdmissionError,
    Job,
    JobJournal,
    JobScheduler,
    JobState,
    job_id_for,
    specs_from_payload,
)


def _spec(app="sieve", **kwargs):
    kwargs.setdefault("model", "switch-on-load")
    kwargs.setdefault("processors", 2)
    kwargs.setdefault("level", 2)
    kwargs.setdefault("scale", "tiny")
    return RunSpec(app=app, **kwargs)


class GatedEngine:
    """Engine stand-in whose run_many blocks on a gate — makes queue
    states deterministic for admission-control tests."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = 0

    def run_many(self, specs, on_error="record", progress=None, trace=None):
        self.calls += 1
        assert self.gate.wait(30.0), "test forgot to open the gate"
        results = []
        for spec in specs:
            if progress is not None:
                progress({"label": spec.label(), "source": "run",
                          "elapsed": 0.0, "done": 0, "total": len(specs)})
            results.append(_FakeResult())
        return results

    def failure(self, key):
        return None

    def report(self):
        return {name: 0 for name in
                ("executed", "cached", "memo_hits", "failed", "deduped",
                 "simulated_cycles")}

    def close(self):
        pass


class _FakeResult:
    def to_dict(self):
        return {"wall_cycles": 1, "stats": {}, "config": {}}


@pytest.fixture
def gated():
    engine = GatedEngine()
    scheduler = JobScheduler(engine, max_queue_depth=1,
                             max_inflight_bytes=1000)
    yield engine, scheduler
    engine.gate.set()
    scheduler.stop(drain=True, timeout=10.0)


def test_job_id_is_content_derived_and_order_insensitive():
    a, b = _spec("sieve").key(), _spec("sor").key()
    assert job_id_for([a, b]) == job_id_for([b, a])
    assert job_id_for([a]) != job_id_for([b])
    assert job_id_for([a]).startswith("j")


def test_queue_full_rejects_with_retry_after(gated):
    engine, scheduler = gated
    running, _ = scheduler.submit([_spec("sieve")])   # picked up, blocked
    time.sleep(0.05)                                  # worker pops it
    queued, _ = scheduler.submit([_spec("sor")])      # fills depth-1 queue
    with pytest.raises(AdmissionError) as excinfo:
        scheduler.submit([_spec("blkmat")])
    assert excinfo.value.status == 429
    assert excinfo.value.retry_after >= 1
    assert scheduler.metrics.counter("serve.jobs.rejected").value == 1
    engine.gate.set()
    assert running.wait(10.0) and queued.wait(10.0)


def test_byte_budget_rejects(gated):
    engine, scheduler = gated
    with pytest.raises(AdmissionError) as excinfo:
        scheduler.submit([_spec()], nbytes=2000)
    assert excinfo.value.status == 429
    assert "byte budget" in str(excinfo.value)


def test_coalescing_attaches_even_when_queue_full(gated):
    engine, scheduler = gated
    job, coalesced = scheduler.submit([_spec("sieve")])
    time.sleep(0.05)
    scheduler.submit([_spec("sor")])  # queue now full
    again, coalesced_again = scheduler.submit([_spec("sieve")])
    assert not coalesced and coalesced_again
    assert again is job
    assert job.clients == 2
    assert scheduler.metrics.counter("serve.jobs.coalesced").value == 1
    engine.gate.set()


def test_draining_rejects_with_503(gated):
    engine, scheduler = gated
    engine.gate.set()
    scheduler.drain(timeout=10.0)
    with pytest.raises(AdmissionError) as excinfo:
        scheduler.submit([_spec()])
    assert excinfo.value.status == 503


def test_drain_settles_running_and_queued_jobs(gated):
    engine, scheduler = gated
    first, _ = scheduler.submit([_spec("sieve")])
    time.sleep(0.05)
    second, _ = scheduler.submit([_spec("sor")])
    done = []
    drainer = threading.Thread(
        target=lambda: done.append(scheduler.drain(timeout=20.0))
    )
    drainer.start()
    engine.gate.set()
    drainer.join(timeout=20.0)
    assert done == [True]
    assert first.state is JobState.DONE and second.state is JobState.DONE
    assert engine.calls == 2


def test_idle_worker_reads_no_job_state(monkeypatch):
    # The worker goes idle once its queue is empty; it must not scan the
    # retained jobs for one still unsettled while holding the lock that
    # every submission waits for.
    engine = GatedEngine()
    engine.gate.set()
    scheduler = JobScheduler(engine)
    try:
        retained = {}
        for latency in range(3000):
            job = Job([_spec("sor", latency=latency)])
            job.mark_done([])
            retained[job.job_id] = job
        with scheduler._lock:
            scheduler.jobs.update(retained)
        reads = []
        settled = Job.settled.fget

        def counted(job):
            reads.append(job.job_id)
            return settled(job)

        monkeypatch.setattr(Job, "settled", property(counted))
        job, coalesced = scheduler.submit([_spec("sieve")])
        assert not coalesced and job.wait(10.0)
        start = time.monotonic()
        assert scheduler.drain(timeout=10.0)
        assert time.monotonic() - start < 0.5
        assert reads == []
    finally:
        scheduler.stop(drain=False, timeout=10.0)


def test_failed_spec_fails_job_with_error_payload(tmp_path):
    scheduler = JobScheduler(Engine(workers=1))
    spec = _spec(overrides=(("max_cycles", 100),))  # guaranteed timeout
    job, _ = scheduler.submit([spec])
    assert job.wait(60.0)
    assert job.state is JobState.FAILED
    assert job.error["type"] == "SimulationTimeout"
    assert scheduler.metrics.counter("serve.jobs.failed").value == 1
    # A failed job is not a singleflight target: resubmission replaces it.
    retry, coalesced = scheduler.submit([spec])
    assert not coalesced
    assert retry.wait(60.0) and retry.state is JobState.FAILED
    scheduler.stop()


def test_progress_counters_track_resolved_specs():
    scheduler = JobScheduler(Engine(workers=1))
    specs = [_spec("sieve"), _spec("sor")]
    job, _ = scheduler.submit(specs)
    assert job.wait(120.0)
    assert job.state is JobState.DONE
    assert job.done == 2 and job.total == 2
    assert job.last_label in {spec.label() for spec in specs}
    assert scheduler.metrics.counter("serve.specs.resolved").value == 2
    assert len(job.results) == 2
    scheduler.stop()


def test_job_settles_only_after_it_is_counted_and_journaled(
    tmp_path, monkeypatch
):
    # Settling releases every held wait, so a job must not read done
    # before /metrics counts it and the journal records its finish.
    reached, gate = threading.Event(), threading.Event()
    record_finish = JobJournal.record_finish

    def held(journal, *args):
        reached.set()
        assert gate.wait(30.0), "test forgot to open the gate"
        record_finish(journal, *args)

    monkeypatch.setattr(JobJournal, "record_finish", held)
    engine = GatedEngine()
    engine.gate.set()
    path = tmp_path / "journal.jsonl"
    scheduler = JobScheduler(engine, journal=path)
    completed = scheduler.metrics.counter("serve.jobs.completed")
    try:
        job, _ = scheduler.submit([_spec("sieve")])
        assert reached.wait(30.0)
        assert not job.wait(0.2)
        assert job.status_dict()["state"] == "running"
        assert completed.value == 0
        gate.set()
        assert job.wait(30.0) and job.state is JobState.DONE
        assert completed.value == 1
        [record] = JobJournal(path).load()
        assert record["job"] == job.job_id and record["state"] == "done"
    finally:
        gate.set()
        scheduler.stop(timeout=10.0)


def test_journal_round_trip_and_torn_tail(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    from repro.serve.jobs import Job

    job = Job([_spec("sieve"), _spec("sor")])
    journal.record_submit(job)
    job.mark_done([{}, {}])
    journal.record_finish(job, None)
    journal.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "submit", "job": "jdead", "specs": [{"ap')
    records = JobJournal(path).load()
    assert len(records) == 1
    assert records[0]["job"] == job.job_id
    assert records[0]["state"] == "done"
    assert [spec.key() for spec in records[0]["specs"]] == job.keys


def test_recover_reserves_from_cache_without_recompute(tmp_path):
    cache = tmp_path / "cache"
    journal = tmp_path / "journal.jsonl"
    spec = _spec("sieve")

    first = JobScheduler(Engine(workers=1, cache=str(cache)), journal=journal)
    job, _ = first.submit([spec])
    assert job.wait(60.0) and job.state is JobState.DONE
    original = job.results
    assert first.engine.report()["executed"] == 1
    first.stop()

    second = JobScheduler(Engine(workers=1, cache=str(cache)), journal=journal)
    assert second.recover() == 1
    restored = second.get(job.job_id)
    assert restored is not None and restored is not job
    assert restored.wait(60.0)
    assert restored.state is JobState.DONE
    assert restored.results == original          # byte-identical payloads
    report = second.engine.report()
    assert report["executed"] == 0               # nothing recomputed
    assert report["cached"] == 1
    assert second.metrics.counter("serve.jobs.recovered").value == 1
    second.stop()


def test_specs_from_payload_forms():
    spec = _spec("sieve")
    # Exact to_dict round-trip form.
    [parsed] = specs_from_payload({"spec": spec.to_dict()})
    assert parsed.key() == spec.key()  # latency resolves; content key equal
    # Curl-friendly kwargs form, including a faults mapping.
    [kw] = specs_from_payload(
        {"specs": [{"app": "sieve", "model": "eswitch", "level": 4,
                    "scale": "tiny",
                    "faults": {"latency_model": "uniform", "jitter": 50,
                               "seed": 1}}]}
    )
    assert kw.model == "explicit-switch"
    faults = dict(kw.overrides)["faults"]
    assert faults.latency_model == "uniform" and faults.jitter == 50


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {},
        {"specs": []},
        {"specs": "sieve"},
        {"spec": {"app": "sieve", "model": "not-a-model"}},
        {"spec": {"model": "eswitch"}},
        {"specs": [17]},
    ],
)
def test_specs_from_payload_rejects_malformed(payload):
    with pytest.raises(ValueError):
        specs_from_payload(payload)
