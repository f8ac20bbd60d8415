"""The HTTP face of the simulation service (stdlib ``http.server``).

Endpoints (JSON in, JSON out, ``/metrics`` excepted):

* ``POST /v1/jobs`` — submit one spec (``{"spec": {...}}``) or a sweep
  (``{"specs": [...]}``); returns 202 with the job id, or 429/503 with a
  ``Retry-After`` header when admission control refuses.
* ``GET /v1/jobs/<id>`` — job status (state, progress, coalesced client
  count), derived from the scheduler + the engine's run-log progress
  events.
* ``GET /v1/jobs/<id>/result`` — the per-spec result payloads
  (:meth:`SimulationResult.to_dict` exactly as a direct
  :func:`repro.api.simulate` would return); 202 while pending, 500 for
  failed jobs.
* Both job routes take ``?wait=S``: the reply is held until the job
  settles, S seconds pass (S is clamped to :data:`MAX_WAIT_S`; a
  non-number is a 400) or the server shuts down, so a client learns
  the outcome in one request instead of polling.
* ``GET /healthz`` — liveness + queue/job counts + engine report
  (including the static performance bounds, ``predicted``, of every
  program the engine ran).
* ``GET /metrics`` — Prometheus text exposition
  (:meth:`MetricsRegistry.to_prometheus`).
* ``POST /v1/shutdown`` — graceful drain then exit (also ``SIGTERM``).

Connections are HTTP/1.1 and kept alive between requests; closing the
server closes them too, so a stopped server answers nothing more.

Spec payloads accept either the exact :meth:`RunSpec.to_dict` form (what
:class:`repro.serve.Client` sends) or curl-friendly keyword form
(``{"app": "sieve", "model": "eswitch", "level": 4}``), including a
``faults`` mapping which is lifted *strictly* into a
:class:`~repro.faults.config.FaultConfig` by
:mod:`repro.serve.validation` — unknown keys, wrong types and
out-of-range values come back as a structured 400 naming the offending
key rather than a 500 (or a silently dropped chaos knob).
"""

from __future__ import annotations

import dataclasses
import json
import math
import signal
import socket
import sys
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.cache import default_cache_dir
from repro.engine.executor import Engine
from repro.engine.spec import RunSpec
from repro.jit import DEFAULT_BACKEND
from repro.machine.models import SwitchModel
from repro.obs.spans import SpanContext, SpanRecorder
from repro.serve.jobs import Job, JobState
from repro.serve.scheduler import AdmissionError, JobScheduler
from repro.serve.validation import SpecValidationError, validate_fault_spec

#: Request bodies past this size are refused outright (413) before any
#: JSON parsing — admission control for a single oversized request.
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Longest hold, in seconds, a ``?wait=S`` job request gets.
MAX_WAIT_S = 60.0
#: A held request checks for a server shutdown this often (seconds).
HOLD_SLICE = 0.25
#: The HTTP loop notices a shutdown within this many seconds.  A new
#: connection wakes it at once, so the poll delays no request.
SHUTDOWN_POLL_S = 0.05


@dataclasses.dataclass
class ServerConfig:
    """Everything ``repro-serve serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8023
    workers: int = 1
    cache_dir: Union[str, Path, None] = None
    no_cache: bool = False
    queue_depth: int = 16
    byte_budget: int = 8 * 1024 * 1024
    timeout: Optional[float] = None
    check: bool = False
    journal: Union[str, Path, None] = None
    quiet: bool = False
    #: Span recording: ``None``/``False`` off, ``True`` on (log lands
    #: next to the cache), or a path for the JSONL span log.
    spans: Union[str, Path, bool, None] = None

    def resolved_cache_dir(self) -> Optional[Path]:
        if self.no_cache:
            return None
        return Path(self.cache_dir) if self.cache_dir else default_cache_dir()

    def resolved_journal(self) -> Optional[Path]:
        if self.journal is not None:
            return Path(self.journal)
        cache_dir = self.resolved_cache_dir()
        return cache_dir / "serve-journal.jsonl" if cache_dir else None

    def resolved_spans(self) -> Optional[Path]:
        """The span-log path (``None`` = spans off, or on without a log
        when recording is requested but no cache directory exists)."""
        if not self.spans:
            return None
        if self.spans is True:
            cache_dir = self.resolved_cache_dir()
            return cache_dir / "spans.jsonl" if cache_dir else None
        return Path(self.spans)


def specs_from_payload(payload) -> List[RunSpec]:
    """Parse a ``POST /v1/jobs`` body into specs (raises ``ValueError``
    on anything malformed — the handler answers 400)."""
    if not isinstance(payload, dict):
        raise ValueError("body must be a JSON object")
    if "spec" in payload:
        raw_specs = [payload["spec"]]
    elif "specs" in payload:
        raw_specs = payload["specs"]
    else:
        raise ValueError('body must carry "spec" or "specs"')
    if not isinstance(raw_specs, list) or not raw_specs:
        raise ValueError('"specs" must be a non-empty list')
    specs = []
    for raw in raw_specs:
        if not isinstance(raw, dict):
            raise ValueError("each spec must be a JSON object")
        try:
            specs.append(_decode_spec(raw))
        except SpecValidationError:
            raise  # already names the offending key; don't re-wrap
        except (TypeError, ValueError, KeyError) as error:
            raise ValueError(f"bad spec {raw!r}: {error}") from None
    return specs


def _decode_spec(raw: Dict) -> RunSpec:
    if isinstance(raw.get("overrides"), list):
        return RunSpec.from_dict(raw)  # exact to_dict round-trip form
    raw = dict(raw)
    if "model" in raw:  # accept paper aliases (eswitch, sol, ...)
        raw["model"] = SwitchModel.parse(raw["model"])
    if raw.get("faults") is not None:
        raw["faults"] = validate_fault_spec(raw["faults"])
    return RunSpec.create(**raw)


def _wait_seconds(query: str) -> float:
    """The hold a job request's query string asks for (``wait=S``),
    clamped to ``[0, MAX_WAIT_S]``; 0 without one.  Raises
    ``ValueError`` when S is not a number."""
    values = urllib.parse.parse_qs(query).get("wait")
    if not values:
        return 0.0
    try:
        seconds = float(values[-1])
        if math.isnan(seconds):
            raise ValueError
    except ValueError:
        raise ValueError(
            f"wait must be a number of seconds, not {values[-1]!r}"
        ) from None
    return min(max(seconds, 0.0), MAX_WAIT_S)


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, app: "ReproServer"):
        self.app = app
        self._connections = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    # A handler thread keeps reading its kept-alive connection until the
    # client closes it, so a closed server would go on answering; it
    # tracks its connections and shuts them down when it closes.

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it meanwhile
        super().server_close()

    def handle_error(self, request, client_address):
        # A client that hangs up mid-reply is not a server fault.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Headers and body go out as two writes.  On a kept-alive connection
    # Nagle's algorithm would hold the body back until the client's
    # delayed ACK of the headers, about 40 ms per reply.
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------------

    @property
    def app(self) -> "ReproServer":
        return self.server.app

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.app.config.quiet:
            sys.stderr.write(
                "[serve] %s %s\n" % (self.address_string(), format % args)
            )

    def _send(
        self,
        status: int,
        body: Union[Dict, bytes, str],
        content_type: str = "application/json",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if isinstance(body, dict):
            body = json.dumps(body, separators=(",", ":")).encode("utf-8")
        elif isinstance(body, str):
            body = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, **extra) -> None:
        self._send(status, {"error": message, **extra})

    def _read_body(self) -> Optional[bytes]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # Drain (bounded) so the client sees the 413 rather than a
            # broken pipe mid-upload, then drop the connection.
            remaining = length
            while remaining > 0:
                chunk = self.rfile.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
            self._send(413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"},
                       headers={"Connection": "close"})
            return None
        return self.rfile.read(length)

    # -- routes ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            return self._send(200, self.app.health_dict())
        if path == "/metrics":
            return self._send(
                200,
                self.app.metrics_text(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if path.startswith("/v1/jobs/"):
            parts = path[len("/v1/jobs/"):].split("/")
            if len(parts) == 1 or parts[1:] == ["result"]:
                return self._job(parts[0], query, result=len(parts) == 2)
        return self._error(404, f"no route for GET {path}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/v1/jobs":
            return self._submit()
        if path == "/v1/shutdown":
            self._send(202, {"status": "draining"})
            threading.Thread(
                target=self.app.shutdown, name="repro-serve-shutdown",
                daemon=True,
            ).start()
            return None
        return self._error(404, f"no route for POST {path}")

    def _submit(self) -> None:
        recorder = self.app.spans
        if recorder is None:
            return self._handle_submit(None)
        # Join the caller's trace when it sent a well-formed traceparent
        # header; otherwise this request roots a fresh trace.
        http_span = recorder.start(
            "http",
            parent=SpanContext.from_traceparent(self.headers.get("traceparent")),
            attributes={"method": "POST", "path": "/v1/jobs"},
        )
        try:
            self._handle_submit(http_span)
        except BaseException:
            recorder.finish(http_span, status="error")
            raise
        recorder.finish(http_span)

    def _handle_submit(self, http_span) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body.decode("utf-8"))
            specs = specs_from_payload(payload)
        except SpecValidationError as error:
            if http_span is not None:
                http_span.set(http_status=400)
            extra = {"key": error.key} if error.key else {}
            return self._error(400, str(error), **extra)
        except (ValueError, UnicodeDecodeError) as error:
            if http_span is not None:
                http_span.set(http_status=400)
            return self._error(400, str(error))
        timeout = payload.get("timeout", "inherit")
        if timeout is not None and timeout != "inherit":
            try:
                timeout = float(timeout)
            except (TypeError, ValueError):
                if http_span is not None:
                    http_span.set(http_status=400)
                return self._error(400, "timeout must be a number")
        try:
            job, coalesced = self.app.scheduler.submit(
                specs, nbytes=len(body), timeout=timeout,
                trace=http_span.context if http_span is not None else None,
            )
        except AdmissionError as refused:
            if http_span is not None:
                http_span.set(http_status=refused.status)
            return self._send(
                refused.status,
                {"error": refused.reason, "retry_after": refused.retry_after},
                headers={"Retry-After": str(refused.retry_after)},
            )
        accepted = {
            "job": job.job_id,
            "coalesced": coalesced,
            "specs": job.total,
            "state": job.state.value,
            "status_url": f"/v1/jobs/{job.job_id}",
            "result_url": f"/v1/jobs/{job.job_id}/result",
        }
        if http_span is not None:
            http_span.set(http_status=202, job=job.job_id)
            accepted["trace"] = http_span.trace_id
        self._send(202, accepted)

    def _job(self, job_id: str, query: str, result: bool) -> None:
        """``GET /v1/jobs/<id>[/result][?wait=S]``."""
        try:
            hold = _wait_seconds(query)
        except ValueError as error:
            return self._error(400, str(error))
        job = self.app.scheduler.get(job_id)
        if job is None:
            return self._error(404, f"unknown job {job_id!r}")
        if hold:
            self.app.hold(job, hold)
        if not result:
            return self._send(200, job.status_dict())
        if job.state is JobState.FAILED:
            return self._send(500, {"job": job.job_id, "error": job.error})
        if job.state is not JobState.DONE:
            return self._send(202, job.status_dict())
        self._send(200, {"job": job.job_id, "results": job.results})


class ReproServer:
    """One bound server: engine + scheduler + HTTP front end.

    Usable embedded (tests call :meth:`start` / :meth:`shutdown`) or via
    :func:`serve`, which adds signal handling and blocks.
    """

    def __init__(self, config: Optional[ServerConfig] = None, **overrides):
        if config is None:
            config = ServerConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        self.config = config
        cache_dir = config.resolved_cache_dir()
        # One recorder shared by every layer: the handler's http span,
        # the scheduler's stage spans and the engine's dispatch tree all
        # land in one log.  The scheduler wires its metrics registry in,
        # so stage latencies also surface at /metrics.
        self.spans: Optional[SpanRecorder] = (
            SpanRecorder(log=config.resolved_spans()) if config.spans else None
        )
        self.engine = Engine(
            workers=config.workers,
            cache=str(cache_dir) if cache_dir else None,
            spans=self.spans,
        )
        self.scheduler = JobScheduler(
            self.engine,
            max_queue_depth=config.queue_depth,
            max_inflight_bytes=config.byte_budget,
            default_timeout=config.timeout,
            journal=config.resolved_journal(),
            check=config.check,
            spans=self.spans,
        )
        self.started = time.time()
        self.httpd = _ServeHTTPServer((config.host, config.port), _Handler, self)
        self._serve_thread: Optional[threading.Thread] = None
        self._shutdown_lock = threading.Lock()
        self._shut_down = False
        self._shutdown_done = threading.Event()
        #: Set once no held request should wait any longer.
        self._closing = threading.Event()
        self.recovered = self.scheduler.recover()

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def health_dict(self) -> Dict:
        health = self.scheduler.status_dict()
        health["uptime"] = round(time.time() - self.started, 3)
        health["recovered"] = self.recovered
        health["engine"] = self.engine.report()
        if self.spans is not None:
            health["spans"] = {
                "recorded": self.spans.recorded,
                "dropped": self.spans.dropped,
            }
        return health

    def metrics_text(self) -> str:
        """The ``/metrics`` body: process-level gauges stamped fresh per
        scrape, then the scheduler/engine document."""
        from repro import __version__

        registry = self.scheduler.metrics
        registry.gauge(
            "process.uptime_seconds",
            help="Seconds since the server process started",
        ).set(round(time.time() - self.started, 3))
        registry.gauge(
            "repro.build_info",
            help="Constant 1; version and default backend ride as labels",
            labels={"version": __version__, "backend": DEFAULT_BACKEND},
        ).set(1)
        return self.scheduler.metrics_text()

    def hold(self, job: Job, seconds: float) -> None:
        """Block until *job* settles, *seconds* pass or the server shuts
        down (noticed within :data:`HOLD_SLICE`)."""
        deadline = time.monotonic() + seconds
        while not self._closing.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0 or job.wait(min(remaining, HOLD_SLICE)):
                return

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ReproServer":
        """Serve in a background thread (embedded / test use)."""
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve-http",
            kwargs={"poll_interval": SHUTDOWN_POLL_S}, daemon=True,
        )
        self._serve_thread.start()
        return self

    def shutdown(self, drain: bool = True, timeout: Optional[float] = 30.0) -> bool:
        """Graceful exit: stop admitting, settle in-flight jobs, release
        held ``?wait`` requests (at once when not draining), flush
        journal + run log, stop the HTTP loop and close its connections.
        Idempotent — concurrent callers block until the first caller's
        shutdown completes."""
        with self._shutdown_lock:
            first = not self._shut_down
            self._shut_down = True
        if not first:
            self._shutdown_done.wait(timeout)
            return True
        try:
            if not drain:  # queued jobs will not settle: release held waits
                self._closing.set()
            drained = self.scheduler.stop(drain=drain, timeout=timeout)
            self._closing.set()
            if self.spans is not None:
                self.spans.close()
            self.httpd.shutdown()
            self.httpd.server_close()
            if self._serve_thread is not None:
                self._serve_thread.join(timeout=5.0)
        finally:
            self._shutdown_done.set()
        return drained

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def serve(config: ServerConfig) -> int:
    """Run a server in the foreground until SIGTERM/SIGINT (the
    ``repro-serve serve`` entry); returns a process exit code."""
    server = ReproServer(config)

    def handle_signal(signum, _frame):
        if not config.quiet:
            print(
                f"[serve] {signal.Signals(signum).name}: draining...",
                file=sys.stderr,
                flush=True,
            )
        threading.Thread(
            target=server.shutdown, name="repro-serve-signal", daemon=True
        ).start()

    previous: List[Tuple[int, object]] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous.append((signum, signal.signal(signum, handle_signal)))
    if not config.quiet:
        extras = []
        if server.recovered:
            extras.append(f"{server.recovered} job(s) recovered from journal")
        cache_dir = config.resolved_cache_dir()
        extras.append(f"cache {cache_dir}" if cache_dir else "cache disabled")
        if config.spans:
            span_log = config.resolved_spans()
            extras.append(f"spans {span_log}" if span_log else "spans in-memory")
        print(
            f"[serve] listening on {server.url} "
            f"({config.workers} worker(s), {', '.join(extras)})",
            file=sys.stderr,
            flush=True,
        )
    try:
        server.httpd.serve_forever(poll_interval=SHUTDOWN_POLL_S)
    finally:
        server.shutdown()
        for signum, handler in previous:
            signal.signal(signum, handler)
        if not config.quiet:
            print("[serve] drained; bye", file=sys.stderr, flush=True)
    return 0
