"""Fan-out execution of :class:`RunSpec` sweeps.

The :class:`Engine` is the single funnel every simulation goes through:

* **memo** — each spec key resolves to the same live
  :class:`~repro.machine.simulator.SimulationResult` object within one
  engine (what :class:`~repro.harness.context.ExperimentContext`'s
  in-process memoisation used to do);
* **disk cache** — completed runs are persisted through a
  :class:`~repro.engine.cache.ResultCache`, so repeated or interrupted
  sweeps resume instantly across processes;
* **worker pool** — :meth:`Engine.run_many` executes cache-missing specs
  across a ``ProcessPoolExecutor``; results are collected back in *input
  order* regardless of completion order, so any sweep is byte-for-byte
  identical to its serial execution.  With ``workers=1``, or on
  platforms/sandboxes where a pool cannot be created, execution falls
  back to a plain serial loop — same results, same order;
* **checks** — with ``check=True`` each spec is linted and its result
  passes the invariant oracle before it enters the memo (see :class:`Engine`).

Deterministic failures (a :class:`SimulationTimeout` from a bounded
ablation run) are memoised and cached like results, and re-raised on
every subsequent request for the same spec.  A run past the engine's
``timeout`` fails with :class:`DeadlineExceeded`, memoised but never
cached: it says how busy the host was, not what the spec does.
"""

from __future__ import annotations

import collections
import concurrent.futures
import functools
import multiprocessing
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import dataclasses

from repro.engine.cache import ResultCache
from repro.engine.spec import RunSpec
from repro.jit import resolve_backend
from repro.machine.simulator import DeadlineExceeded, SimulationResult, SimulationTimeout
from repro.obs.runlog import RunLogWriter, peak_rss_kb
from repro.obs.spans import SpanContext, SpanRecorder, new_span_id, new_trace_id
from repro.obs.spans import active as active_spans

ProgressFn = Callable[[Dict], None]


class EngineRunError(RuntimeError):
    """A run failed inside the engine (worker crash, bad spec, run
    deadline); the original error type/message is in ``args[0]``."""


@functools.lru_cache(maxsize=64)
def _build(app_name: str, nthreads: int, code_model: str, scale: str):
    """Build (and lower) one application — cached per process and per
    total thread count, so each multithreading level of a sweep builds
    its own program.  The levels' programs lower to the same code, and
    the compiled backend shares its blocks by program content
    (:func:`repro.jit.compiled_for`), so later levels reuse them."""
    from repro.apps.registry import get_app
    from repro.compiler.passes import prepare_for_model
    from repro.harness.sizes import sizes_for
    from repro.machine.models import SwitchModel

    spec = get_app(app_name)
    sizes = sizes_for(app_name, scale)
    app = spec.build(nthreads, **sizes)
    program = prepare_for_model(app.program, SwitchModel(code_model))
    return app, program


def _error(spec: RunSpec, error: Exception) -> Dict:
    """The failure record of *spec*, labelled so a run log says what failed."""
    return {"type": type(error).__name__, "message": f"{spec.label()}: {error}"}


def _execute_payload(
    spec: RunSpec,
    span_context=None,
    timeout: Optional[float] = None,
) -> Tuple[Optional[SimulationResult], Dict]:
    """Simulate one spec; returns ``(live result | None, payload)``.

    The single execution funnel behind both the pool worker
    (:func:`execute_spec`) and the in-process serial path.  Never
    raises: failures come back as ``{"error": {...}}`` payloads.  The
    payload carries no ``"result"``: only the callers that ship it
    across a process or onto disk serialize the live result.

    *timeout* is the run's wall-clock budget in seconds from here,
    build included, which the simulation enforces.

    *span_context* is a ``(trace_id, parent_span_id)`` pair — the
    submitting request's trace crossing the ``ProcessPoolExecutor``
    boundary.  When present, the worker opens a ``simulate`` span
    parented on it (children: ``build``, ``jit-compile``, ``run``) and
    ships the finished spans back inside the payload under ``"spans"``
    for the parent-side recorder to absorb.  A failed run finishes the
    stage span it failed in with status ``error``, so its time is not
    counted as ``simulate`` self time.
    """
    from repro.runtime.execution import run_app

    recorder = simulate_span = stage = None
    if span_context is not None:
        recorder = SpanRecorder(capacity=None)
        simulate_span = recorder.start(
            "simulate",
            parent=tuple(span_context),
            attributes={"spec": spec.label(), "worker": os.getpid()},
        )
    start = time.perf_counter()
    deadline = None if timeout is None else time.monotonic() + timeout
    payload: Dict = {"spec": spec.to_dict()}
    try:
        if recorder is not None:
            stage = recorder.start("build", parent=simulate_span)
        app, program = _build(
            spec.app,
            spec.total_threads,
            spec.effective_code_model.value,
            spec.scale,
        )
        if recorder is not None:
            from repro.jit import compile_seconds_for

            recorder.finish(stage)
            compile_before = compile_seconds_for(program)
            stage = run_span = recorder.start(
                "run",
                parent=simulate_span,
                attributes={"backend": resolve_backend(spec.backend)},
            )
        result = run_app(
            app, spec.machine_config(), program=program, backend=spec.backend,
            deadline=deadline,
        )
        if recorder is not None:
            recorder.finish(run_span)
            stage = None
            # Lazy block compilation happens *inside* the run; the delta
            # of the program's accumulator splits compile-vs-run out as
            # sibling spans (the compile span overlaps its run sibling).
            compile_delta = compile_seconds_for(program) - compile_before
            if compile_delta > 0.0:
                jit_span = recorder.start(
                    "jit-compile",
                    parent=simulate_span,
                    start=run_span.start,
                    attributes={"accumulated": True},
                )
                jit_span.end = run_span.start + compile_delta
                recorder.record(jit_span)
            recorder.finish(simulate_span)
    except Exception as error:  # noqa: BLE001 — must cross process boundary
        result = None
        payload["error"] = _error(spec, error)
        if recorder is not None:
            if stage is not None:
                recorder.finish(stage, status="error")
            recorder.finish(simulate_span, status="error")
    payload["elapsed"] = time.perf_counter() - start
    payload["worker"] = os.getpid()
    payload["peak_rss_kb"] = peak_rss_kb()
    if recorder is not None:
        payload["spans"] = [span.to_dict() for span in recorder.spans()]
    return result, payload


def execute_spec(spec: RunSpec, span_context=None, timeout=None) -> Dict:
    """Simulate one spec and return its payload dictionary, the result
    serialized under ``"result"`` — the worker pool's entry point (top
    level, so it pickles); see :func:`_execute_payload`."""
    result, payload = _execute_payload(spec, span_context, timeout)
    if result is not None:
        payload["result"] = result.to_dict()
    return payload


def _raise_payload_error(error: Dict) -> None:
    if error["type"] == "SimulationTimeout":
        raise SimulationTimeout(error["message"])
    raise EngineRunError(f"{error['type']}: {error['message']}")


def stderr_progress(event: Dict) -> None:
    """Default progress sink: one line per completed run on stderr."""
    print(
        "[engine] {done}/{total} ({source}) {label} {elapsed:.2f}s".format(**event),
        file=sys.stderr,
        flush=True,
    )


class Engine:
    """Memoising, caching, parallel executor of simulation specs.

    :param workers: worker processes for :meth:`run_many`; ``1`` means
        serial in-process execution.
    :param cache: a :class:`ResultCache`, a cache-directory path, or
        ``None`` to disable on-disk persistence.  With a cache, every run
        that misses the memo is also logged to the JSONL run log next to
        it (:attr:`ResultCache.runlog_path`).
    :param timeout: wall-clock budget in seconds of each run, in-process
        or pooled, that the simulation itself enforces.  A run past it
        stops, freeing its worker, and fails with :class:`DeadlineExceeded`
        (counted, logged, returned by :meth:`failure`, never cached).
    :param progress: optional callback receiving one event dictionary
        per completed/cached/failed run (see :func:`stderr_progress`).
    :param check: lint the program of every spec this engine resolves
        (:func:`repro.lint.lint_spec`) before it is read from disk or
        simulated, and run :func:`repro.check.check_result` once on its
        result.  A failed check fails the spec like a run that raises
        (counted, logged, returned by :meth:`failure`) but never enters
        the result cache: whoever wrote a result, its reader checks it.
    :param backend: default execution backend (``"interpreter"``,
        ``"compiled"``, ``"auto"``; see :mod:`repro.jit`) for specs that
        do not name one themselves.  A spec's own ``backend`` field wins.
        ``None`` (default) defers to the global default.  Backends are
        bit-identical, so this only changes wall-clock speed — never
        results, and never cache keys.
    :param spans: a :class:`~repro.obs.spans.SpanRecorder` receiving
        wall-clock stage spans (cache-lookup / dispatch / simulate, and
        deserialize for disk hits and pool runs) per resolved spec.
        Disabled recorders are normalised to ``None`` (the tracer
        contract), so the default costs one ``is not None`` check per
        stage.  Spans never enter the result cache — payloads are
        stripped before persisting.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Union[ResultCache, str, None] = None,
        timeout: Optional[float] = None,
        progress: Optional[ProgressFn] = None,
        check: bool = False,
        backend: Optional[str] = None,
        spans: Optional[SpanRecorder] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.check = check
        self.spans = active_spans(spans)
        #: Trace context engine-emitted spans parent under (set per
        #: :meth:`run_many` call via its ``trace`` argument).
        self._trace = None
        if backend is not None:
            resolve_backend(backend)  # reject unknown spellings up front
        self.backend = backend
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.timeout = timeout
        self.progress = progress
        self.runlog_path = cache.runlog_path if cache is not None else None
        self._runlog_writer: Optional[RunLogWriter] = None
        self._peak_rss_kb: Optional[int] = None
        self._memo: Dict[str, SimulationResult] = {}
        self._failures: Dict[str, Dict] = {}
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._pool_broken = False
        self._counts = {
            "executed": 0,
            "cached": 0,
            "memo_hits": 0,
            "failed": 0,
            "deduped": 0,
            "linted": 0,
            "checked": 0,
        }
        #: Lint findings over every linted spec, by (rule, severity).
        self._lint_diagnostics: collections.Counter = collections.Counter()
        self._executed_by_backend: Dict[str, int] = {}
        self._simulated_cycles = 0
        self._wall_time = 0.0
        self._started = time.perf_counter()
        #: Distinct (program, machine shape) combos resolved so far —
        #: the inputs :meth:`predicted` feeds the static predictor.
        self._predict_keys: Dict[Tuple, str] = {}

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._runlog_writer is not None:
            self._runlog_writer.close()
            self._runlog_writer = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> Optional[concurrent.futures.ProcessPoolExecutor]:
        """Build the worker pool lazily; fall back to serial on platforms
        (or sandboxes) that cannot fork/spawn worker processes."""
        if self.workers <= 1 or self._pool_broken:
            return None
        if self._pool is None:
            try:
                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context(
                    "fork" if "fork" in methods else None
                )
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                )
            except (OSError, ValueError, NotImplementedError) as error:
                print(
                    f"[engine] worker pool unavailable ({error}); "
                    "falling back to serial execution",
                    file=sys.stderr,
                )
                self._pool_broken = True
                return None
        return self._pool

    # -- bookkeeping -----------------------------------------------------------

    def _effective(self, spec: RunSpec) -> RunSpec:
        """The spec as it will execute: the engine-level default backend
        is stamped onto specs that carry none.  Memo and cache keys
        ignore the backend, so this never changes what a spec resolves
        to — only which engine simulates a miss."""
        if spec.backend is None and self.backend is not None:
            return dataclasses.replace(spec, backend=self.backend)
        return spec

    def _notify(self, spec: RunSpec, source: str, elapsed: float, total: int) -> None:
        if self.progress is None:
            return
        done = sum(
            self._counts[name] for name in ("executed", "cached", "failed")
        )
        self.progress(
            {
                "label": spec.label(),
                "source": source,
                "elapsed": elapsed,
                "done": done,
                "total": total,
            }
        )

    def predicted(self) -> Dict[str, Dict]:
        """Static performance bounds (:mod:`repro.lint.predict`) for
        every distinct program this engine resolved, keyed by spec
        label.  Memoised per (app, model, shape); a program the
        predictor cannot analyse is skipped — prediction must never
        fail a sweep.  The loop runs over a snapshot: a ``/healthz``
        request calls this while the serve scheduler thread records new
        keys."""
        from repro.lint import predict_spec_cached

        out: Dict[str, Dict] = {}
        for key, label in list(self._predict_keys.items()):
            try:
                prediction = predict_spec_cached(*key)
            except Exception:  # noqa: BLE001 - advisory output only
                continue
            out[label] = prediction.to_dict()
        return out

    def _record_predict_key(self, spec: RunSpec) -> None:
        try:
            forced = spec.machine_config().forced_switch_interval
        except Exception:  # noqa: BLE001 - bad overrides already failed the run
            return
        key = (
            spec.app,
            spec.model,
            spec.processors,
            spec.level,
            spec.scale,
            spec.effective_latency,
            forced,
            spec.effective_code_model.value,
        )
        self._predict_keys.setdefault(key, spec.label())

    def report(self) -> Dict:
        """Machine-readable summary of everything this engine did: the
        :meth:`predicted` bounds, then the :meth:`counters`."""
        return {"predicted": self.predicted(), **self.counters()}

    def counters(self) -> Dict:
        """The engine's counts — :meth:`report` without the
        ``predicted`` block, so reading them never runs the predictor."""
        completed = self._counts["executed"] + self._counts["cached"]
        return {
            "executed": self._counts["executed"],
            "executed_by_backend": dict(
                sorted(self._executed_by_backend.items())
            ),
            "cached": self._counts["cached"],
            "memo_hits": self._counts["memo_hits"],
            "failed": self._counts["failed"],
            "deduped": self._counts["deduped"],
            "linted": self._counts["linted"],
            "lint_diagnostics": sorted(
                [*found, count] for found, count in self._lint_diagnostics.items()
            ),
            "checked": self._counts["checked"],
            "completed": completed,
            "cache_fraction": (
                self._counts["cached"] / completed if completed else 0.0
            ),
            "simulated_cycles": self._simulated_cycles,
            "run_seconds": round(self._wall_time, 3),
            "wall_seconds": round(time.perf_counter() - self._started, 3),
            "workers": self.workers,
            "quarantined": self.cache.quarantined if self.cache else 0,
            "cache_dir": str(self.cache.root) if self.cache else None,
            "runlog": str(self.runlog_path) if self.runlog_path else None,
            "peak_rss_kb": self._peak_rss_kb,
        }

    def summary_line(self) -> str:
        """One-line human rendering of :meth:`counters` (for stderr)."""
        report = self.counters()
        cache_part = (
            f", {report['cached']} from cache ({100 * report['cache_fraction']:.0f}%)"
            if self.cache
            else ""
        )
        quarantine_part = (
            f"; {report['quarantined']} corrupt cache entr"
            f"{'y' if report['quarantined'] == 1 else 'ies'} quarantined"
            if report["quarantined"]
            else ""
        )
        # Every execution is attributed to the backend that ran it, so a
        # mixed sweep reads e.g. "12 simulated [10 compiled, 2 interpreter]".
        backend_part = (
            " [" + ", ".join(
                f"{count} {name}"
                for name, count in report["executed_by_backend"].items()
            ) + "]"
            if report["executed_by_backend"]
            else ""
        )
        return (
            f"[engine] {report['completed']} runs "
            f"({report['executed']} simulated{backend_part}{cache_part}, "
            f"{report['failed']} failed, {report['memo_hits']} memo hits), "
            f"{report['simulated_cycles']:,} cycles in {report['wall_seconds']:.1f}s "
            f"with {report['workers']} worker(s){quarantine_part}"
        )

    # -- payload plumbing ------------------------------------------------------

    def _log_run(
        self,
        spec: RunSpec,
        key: str,
        payload: Dict,
        source: str,
        wall_cycles: Optional[int],
    ) -> None:
        """Append one telemetry entry for a resolved spec (never raises —
        telemetry must not fail a sweep)."""
        rss = payload.get("peak_rss_kb")
        if source != "cached":  # cached payloads carry the *original* run's RSS
            if rss is not None and (
                self._peak_rss_kb is None or rss > self._peak_rss_kb
            ):
                self._peak_rss_kb = rss
        if self.runlog_path is None:
            return
        try:
            if self._runlog_writer is None:
                self._runlog_writer = RunLogWriter(self.runlog_path)
            entry = {
                "ts": round(time.time(), 3),
                "spec": spec.label(),
                "key": key,
                "app": spec.app,
                "model": spec.model,
                "source": source,
                "elapsed": round(float(payload.get("elapsed", 0.0)), 4),
                "worker": payload.get("worker"),
                "peak_rss_kb": rss,
                "wall_cycles": wall_cycles,
            }
            if "error" in payload:
                entry["error"] = payload["error"]
            self._runlog_writer.append(entry)
        except OSError as error:  # pragma: no cover - disk-full etc.
            print(f"[engine] run log unavailable ({error})", file=sys.stderr)
            self.runlog_path = None

    def _absorb(
        self,
        spec: RunSpec,
        key: str,
        payload: Dict,
        source: str,
        total: int,
        result: Optional[SimulationResult] = None,
    ) -> None:
        """Fold one payload into the memo + counters, or record the
        failure of an error payload (or, with :attr:`check`, of a result
        the oracle rejects).  *result* is the live result of an
        in-process run; without it the result is restored from the
        payload (disk hits and pool runs)."""
        recorder = self.spans
        if recorder is not None and payload.get("spans"):
            # Worker-side spans came back inside the payload; they
            # already carry the submitting request's trace id.
            recorder.absorb(payload["spans"])
        elapsed = float(payload.get("elapsed", 0.0))
        self._wall_time += elapsed if source == "run" else 0.0
        if "error" in payload:
            self._fail(spec, key, payload, total)
            return
        if result is None:
            if recorder is not None:
                deserialize_span = recorder.start(
                    "deserialize", parent=self._trace,
                    attributes={"spec": spec.label(), "source": source},
                )
            result = SimulationResult.from_dict(payload["result"])
            if recorder is not None:
                recorder.finish(deserialize_span)
        if self.check:
            from repro.check import CheckFailure, check_result

            self._counts["checked"] += 1
            try:
                check_result(result)
            except CheckFailure as failure:
                self._fail(spec, key, {**payload, "error": _error(spec, failure)}, total)
                return
        self._memo[key] = result
        self._record_predict_key(spec)
        if source == "run":
            self._counts["executed"] += 1
            backend = resolve_backend(spec.backend)
            self._executed_by_backend[backend] = (
                self._executed_by_backend.get(backend, 0) + 1
            )
            self._simulated_cycles += result.wall_cycles
        else:
            self._counts["cached"] += 1
        self._log_run(spec, key, payload, source, result.wall_cycles)
        self._notify(spec, source, elapsed, total)

    def _fail(self, spec: RunSpec, key: str, payload: Dict, total: int) -> None:
        """Record the error of *payload* as the failure of *spec*."""
        self._failures[key] = payload["error"]
        self._counts["failed"] += 1
        self._log_run(spec, key, payload, "failed", None)
        self._notify(spec, "failed", float(payload.get("elapsed", 0.0)), total)

    def _lints_clean(self, spec: RunSpec, key: str, total: int) -> bool:
        """Lint and count the program *spec* runs; an error, or a build
        that raises, fails the spec before it resolves."""
        from repro.lint import lint_spec

        try:
            report = lint_spec(spec)
            self._counts["linted"] += 1
            self._lint_diagnostics.update(
                (found.rule_id, found.severity.label)
                for found in report.diagnostics
            )
            report.raise_on_error()
        except Exception as error:  # noqa: BLE001 — fails the spec as a run would
            self._fail(spec, key, {"error": _error(spec, error)}, total)
            return False
        return True

    def _from_disk(self, key: str) -> Optional[Dict]:
        return self.cache.get(key) if self.cache is not None else None

    def _persist(self, key: str, payload: Dict) -> None:
        if payload.get("error", {}).get("type") == DeadlineExceeded.__name__:
            return  # the host's load, not the spec's outcome
        if self.cache is not None:
            if "spans" in payload:
                # Spans are per-request wall-clock telemetry, not part
                # of the result: cached payloads must stay byte-stable
                # regardless of who asked with tracing on.
                payload = {
                    name: value for name, value in payload.items()
                    if name != "spans"
                }
            self.cache.put(key, payload)

    # -- execution -------------------------------------------------------------

    def failure(self, key: str) -> Optional[Dict]:
        """The recorded error payload (``{"type", "message"}``) for a
        spec key, or ``None`` — how callers using ``on_error="record"``
        (and the serve layer) recover *why* a slot came back ``None``."""
        return self._failures.get(key)

    def run(self, spec: RunSpec) -> SimulationResult:
        """Execute (or recall) one spec; raises on failure."""
        return self.run_many([spec])[0]

    def _run_serial_one(self, spec: RunSpec, key: str, total: int) -> None:
        """Execute one spec in-process and memoise its live result.

        When spans are recording, the execution is wrapped in a
        ``dispatch`` span exactly like a pool submission, so serial and
        pooled runs produce the same span tree shape.  The result is
        serialized only when a cache persists it.
        """
        recorder = self.spans
        dispatch = span_context = None
        if recorder is not None:
            dispatch = recorder.start(
                "dispatch", parent=self._trace,
                attributes={"spec": spec.label(), "mode": "serial"},
            )
            span_context = (dispatch.trace_id, dispatch.span_id)
        result, payload = _execute_payload(spec, span_context, self.timeout)
        if result is not None and self.cache is not None:
            payload["result"] = result.to_dict()
        if dispatch is not None:
            recorder.finish(dispatch, status="ok" if result is not None else "error")
        self._persist(key, payload)
        self._absorb(spec, key, payload, "run", total, result)

    #: Fresh worker pools tried after a pool death before degrading to
    #: serial execution (one transient crash — an OOM-killed worker —
    #: should not serialise a whole sweep).
    _POOL_RESTARTS = 1

    def _run_pooled(
        self, pending: List[Tuple[int, RunSpec, str]], total: int
    ) -> None:
        """Execute *pending* on the worker pool, surviving worker deaths.

        Each worker enforces the engine's :attr:`timeout` on its own run
        (:func:`_execute_payload`), so collection waits for every future.

        On ``BrokenProcessPool`` the not-yet-resolved specs are
        resubmitted to a fresh pool (:attr:`_POOL_RESTARTS` times), then
        executed serially — a worker crash degrades throughput, never
        completeness.
        """
        restarts = 0
        remaining = list(pending)
        while remaining:
            pool = self._ensure_pool()
            if pool is None:
                for index, spec, key in remaining:
                    self._run_serial_one(spec, key, total)
                return
            recorder = self.spans
            submitted = []
            for index, spec, key in remaining:
                dispatch = span_context = None
                if recorder is not None:
                    dispatch = recorder.start(
                        "dispatch", parent=self._trace,
                        attributes={"spec": spec.label(), "mode": "pool"},
                    )
                    span_context = (dispatch.trace_id, dispatch.span_id)
                future = pool.submit(execute_spec, spec, span_context, self.timeout)
                submitted.append((index, spec, key, future, dispatch))
            leftovers: List[Tuple[int, RunSpec, str]] = []
            broken = False
            for index, spec, key, future, dispatch in submitted:
                try:
                    payload = future.result()
                except (
                    concurrent.futures.process.BrokenProcessPool,
                    concurrent.futures.CancelledError,
                ):
                    # The pool died under this spec (or cancelled it
                    # while dying); queue it for the retry round.
                    if dispatch is not None:
                        recorder.finish(dispatch, status="retry")
                    broken = True
                    leftovers.append((index, spec, key))
                    continue
                if dispatch is not None:
                    recorder.finish(
                        dispatch,
                        status="ok" if "error" not in payload else "error",
                    )
                self._persist(key, payload)
                self._absorb(spec, key, payload, "run", total)
            if not leftovers:
                return
            if broken and self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
            if restarts < self._POOL_RESTARTS:
                restarts += 1
                print(
                    f"[engine] worker pool died; retrying {len(leftovers)} "
                    "unresolved run(s) in a fresh pool",
                    file=sys.stderr,
                )
            else:
                print(
                    "[engine] worker pool died again; finishing "
                    f"{len(leftovers)} run(s) serially",
                    file=sys.stderr,
                )
                self._pool_broken = True
            remaining = leftovers

    def run_many(
        self,
        specs: Sequence[RunSpec],
        on_error: str = "raise",
        progress: Union[ProgressFn, None, bool] = False,
        trace=None,
    ) -> List[Optional[SimulationResult]]:
        """Execute a sweep; results come back in input order.

        ``on_error="raise"`` re-raises the first failure (after the whole
        sweep has been collected); ``on_error="record"`` leaves ``None``
        in the failed slots — callers that *expect* timeouts (the
        forced-interval ablation) use this and re-raise per spec later.

        *progress* overrides the engine-level sink for this call only
        (``False``, the default, means "inherit"; ``None`` disables) —
        the hook long-lived callers (the serve scheduler) use to give
        each batch its own progress sink.

        *trace* is an optional :class:`~repro.obs.spans.SpanContext`
        (or ``(trace_id, span_id)`` pair) the batch's spans parent
        under — how one served job's engine work joins the submitting
        request's trace.
        """
        if on_error not in ("raise", "record"):
            raise ValueError("on_error must be 'raise' or 'record'")
        saved = (self.progress, self._trace)
        if progress is not False:
            self.progress = progress
        if trace is None and self.spans is not None:
            trace = self._trace or SpanContext(new_trace_id(), new_span_id())
        self._trace = trace
        try:
            return self._run_many(specs, on_error)
        finally:
            self.progress, self._trace = saved

    def _run_many(
        self, specs: Sequence[RunSpec], on_error: str
    ) -> List[Optional[SimulationResult]]:
        specs = [self._effective(spec) for spec in specs]
        keys = [spec.key() for spec in specs]
        total = len(specs)

        # Resolve memo + disk hits first, and dedupe what remains: a
        # batch containing N copies of one spec submits it to the pool
        # (and writes the cache) exactly once; the other N-1 slots are
        # fanned out from the memo at collection time below.
        pending: List[Tuple[int, RunSpec, str]] = []
        claimed = set()
        recorder = self.spans
        for index, (spec, key) in enumerate(zip(specs, keys)):
            lookup = (
                recorder.start(
                    "cache-lookup", parent=self._trace,
                    attributes={"spec": spec.label()},
                )
                if recorder is not None
                else None
            )
            if key in self._memo or key in self._failures:
                self._counts["memo_hits"] += 1
                if lookup is not None:
                    recorder.finish(lookup.set(outcome="memo"))
                continue
            payload = self._from_disk(key)
            if payload is None and key in claimed:
                self._counts["deduped"] += 1
                if lookup is not None:
                    recorder.finish(lookup.set(outcome="deduped"))
                continue
            if lookup is not None:
                recorder.finish(
                    lookup.set(outcome="miss" if payload is None else "hit")
                )
            if self.check and not self._lints_clean(spec, key, total):
                continue
            if payload is not None:
                self._absorb(spec, key, payload, "cached", total)
            else:
                claimed.add(key)
                pending.append((index, spec, key))

        if len(pending) > 1 and self._ensure_pool() is not None:
            self._run_pooled(pending, total)
        else:
            for index, spec, key in pending:
                self._run_serial_one(spec, key, total)

        results: List[Optional[SimulationResult]] = []
        first_failure: Optional[Dict] = None
        for spec, key in zip(specs, keys):
            if key in self._failures:
                if first_failure is None:
                    first_failure = self._failures[key]
                results.append(None)
            else:
                results.append(self._memo[key])
        if first_failure is not None and on_error == "raise":
            _raise_payload_error(first_failure)
        return results
