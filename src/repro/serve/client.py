"""Blocking HTTP client for the simulation service (stdlib ``http.client``).

::

    from repro.serve import Client

    client = Client("http://127.0.0.1:8023")
    job = client.submit({"app": "sieve", "model": "eswitch", "level": 4})
    payload = client.result(job)           # blocks until the job settles
    print(payload[0]["wall_cycles"])

``submit`` accepts a :class:`~repro.engine.spec.RunSpec`, a keyword
dictionary, or a list of either; results come back as the server's
per-spec :meth:`SimulationResult.to_dict` payloads, byte-identical to a
direct :func:`repro.api.simulate` of the same specs.

Transport: each calling thread keeps one kept-alive HTTP/1.1 connection
(a ``threading.local``), so one thread's blocking wait never delays
another thread's request.  A reused connection the server has closed
(across a server restart, say) is retried once on a fresh one; that
is safe even for ``POST /v1/jobs``, whose job ids are content-derived.
Every transport failure is an :class:`OSError`.

:meth:`Client.wait` and ``result(wait=True)`` make one request per job:
``GET /v1/jobs/<id>[/result]?wait=S`` holds the reply on the server until
the job settles.  S is half the client's socket timeout (the server caps
it at :data:`repro.serve.server.MAX_WAIT_S`), so the reply always comes
before the socket gives up.  ``poll`` is only the pause before asking
again when the server answers while the job is still pending: the hold
ran out, the server is shutting down, or it predates ``?wait``.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
import urllib.parse
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.spec import RunSpec
from repro.obs.spans import SpanContext, new_span_id, new_trace_id

SpecLike = Union[RunSpec, Dict]

#: Job states a held ``GET`` may still answer with.
_PENDING = ("queued", "running")


class ServeError(RuntimeError):
    """A non-success response from the server; carries the HTTP status
    and decoded body (``payload``)."""

    def __init__(self, status: int, payload):
        message = (
            payload.get("error", str(payload))
            if isinstance(payload, dict)
            else str(payload)
        )
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class JobRejected(ServeError):
    """Admission control refused the submission (429/503);
    ``retry_after`` carries the server's backoff hint in seconds."""

    def __init__(self, status: int, payload):
        super().__init__(status, payload)
        self.retry_after = (
            payload.get("retry_after", 1) if isinstance(payload, dict) else 1
        )


def _encode_spec(spec: SpecLike) -> Dict:
    if isinstance(spec, RunSpec):
        return spec.to_dict()
    if isinstance(spec, dict):
        return spec
    raise TypeError(f"expected RunSpec or dict, got {type(spec).__name__}")


class Client:
    """Thin blocking wrapper over the ``/v1`` HTTP API.

    :param base_url: server address, e.g. ``http://127.0.0.1:8023``.
    :param timeout: socket timeout per request in seconds.
    :param spans: optional :class:`~repro.obs.spans.SpanRecorder`; with
        one, every :meth:`submit` is wrapped in a ``client-submit``
        span whose trace the server joins.  Submissions always carry a
        ``traceparent`` header either way — a span-recording server
        correlates them even when the client keeps no spans itself.
    """

    def __init__(self, base_url: str, timeout: float = 30.0, spans=None):
        self.base_url = base_url.rstrip("/")
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.netloc:
            raise ValueError(f"expected an http:// URL, got {base_url!r}")
        self._netloc, self._prefix = parts.netloc, parts.path
        self.timeout = timeout
        self.spans = spans
        self._local = threading.local()

    # -- transport -------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], object]:
        data = (
            json.dumps(body, separators=(",", ":")).encode("utf-8")
            if body is not None
            else None
        )
        request_headers = {"Content-Type": "application/json"} if data else {}
        if headers:
            request_headers.update(headers)
        reused = getattr(self._local, "connection", None) is not None
        try:
            reply, raw = self._exchange(method, path, data, request_headers)
        except ConnectionError:
            if not reused:
                raise
            # The server closed the kept-alive connection (it restarted,
            # say): once more on a fresh one.
            reply, raw = self._exchange(method, path, data, request_headers)
        status = reply.status
        headers = dict(reply.headers.items())
        content_type = headers.get("Content-Type", "")
        if content_type.startswith("application/json"):
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        else:
            payload = raw.decode("utf-8")
        return status, headers, payload

    def _exchange(self, method, path, data, headers):
        """One request and its whole reply on this thread's connection;
        returns ``(response, body bytes)``."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._netloc, timeout=self.timeout
            )
            self._local.connection = connection
        try:
            connection.request(method, self._prefix + path, body=data,
                               headers=headers)
            reply = connection.getresponse()
            raw = reply.read()
        except BaseException as error:
            # A half-used connection refuses the next request
            # (CannotSendRequest), so none outlives a failed one.
            self.close()
            if isinstance(error, http.client.HTTPException) and not isinstance(
                error, OSError
            ):
                raise ConnectionError(
                    f"bad reply from {self.base_url}: {error!r}"
                ) from error
            raise
        if reply.will_close:
            self.close()
        return reply, raw

    def _held(self, path: str, timeout: Optional[float], poll: float):
        """``GET path?wait=S`` until the reply is no longer a pending
        job's status (see the module docstring); returns
        ``(HTTP status, payload)``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            hold = self.timeout / 2 if self.timeout else math.inf
            if deadline is not None:
                hold = min(hold, max(0.0, deadline - time.monotonic()))
            status, _headers, payload = self._request(
                "GET", f"{path}?wait={hold:g}"
            )
            if not isinstance(payload, dict) or payload.get("state") not in _PENDING:
                return status, payload
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {payload.get('job')} still {payload['state']} "
                    f"after {timeout}s"
                )
            time.sleep(poll)

    def close(self) -> None:
        """Close the calling thread's connection (the next request opens
        a new one).  Other threads' connections close when their thread
        or this client goes away."""
        connection = getattr(self._local, "connection", None)
        self._local.connection = None
        if connection is not None:
            connection.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _get_json(self, path: str) -> Dict:
        status, _headers, payload = self._request("GET", path)
        if status >= 400:
            raise ServeError(status, payload)
        return payload

    # -- API -------------------------------------------------------------------

    def submit(
        self,
        specs: Union[SpecLike, List[SpecLike]],
        retries: int = 0,
    ) -> Dict:
        """POST a job; returns the acceptance payload (``job``,
        ``coalesced``, ``status_url``...).

        *retries* > 0 re-submits after a 429/503, sleeping the server's
        ``Retry-After`` hint between attempts; past the budget the last
        :class:`JobRejected` propagates.

        The submission stamps a fresh ``traceparent`` header (one trace
        across all retry attempts — the job coalesces server-side), so a
        span-recording server threads its whole pipeline under this
        call's trace id even when the client records nothing.
        """
        if isinstance(specs, (RunSpec, dict)):
            specs = [specs]
        body: Dict = {"specs": [_encode_spec(spec) for spec in specs]}
        span = None
        if self.spans is not None:
            span = self.spans.start(
                "client-submit", attributes={"specs": len(specs)}
            )
            context = span.context
        else:
            context = SpanContext(new_trace_id(), new_span_id())
        headers = {"traceparent": context.to_traceparent()}
        attempt = 0
        try:
            while True:
                status, _headers, payload = self._request(
                    "POST", "/v1/jobs", body, headers=headers
                )
                if status in (429, 503):
                    rejection = JobRejected(status, payload)
                    if attempt >= retries:
                        raise rejection
                    attempt += 1
                    time.sleep(rejection.retry_after)
                    continue
                if status >= 400:
                    raise ServeError(status, payload)
                if span is not None:
                    span.set(
                        job=payload.get("job"),
                        coalesced=payload.get("coalesced"),
                    )
                    self.spans.finish(span)
                    span = None
                return payload
        finally:
            if span is not None:
                self.spans.finish(span, status="error")

    def status(self, job: Union[str, Dict]) -> Dict:
        """``GET /v1/jobs/<id>`` — the job's status dictionary."""
        return self._get_json(f"/v1/jobs/{_job_id(job)}")

    def wait(
        self,
        job: Union[str, Dict],
        timeout: Optional[float] = None,
        poll: float = 0.05,
    ) -> Dict:
        """Block until the job settles; returns its final status (raises
        ``TimeoutError`` if *timeout* seconds elapse first).  The server
        holds one request until then; *poll* is the pause before asking
        again if it answers while the job is still pending."""
        status, payload = self._held(f"/v1/jobs/{_job_id(job)}", timeout, poll)
        if status >= 400:
            raise ServeError(status, payload)
        return payload

    def result(
        self,
        job: Union[str, Dict],
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> List[Dict]:
        """The job's per-spec result payloads (blocks until settled by
        default); raises :class:`ServeError` for failed jobs."""
        path = f"/v1/jobs/{_job_id(job)}/result"
        if wait:
            status, payload = self._held(path, timeout, poll=0.05)
        else:
            status, _headers, payload = self._request("GET", path)
        if status != 200:
            raise ServeError(status, payload)
        return payload["results"]

    def health(self) -> Dict:
        return self._get_json("/healthz")

    def metrics(self) -> str:
        """The raw Prometheus exposition text."""
        status, _headers, payload = self._request("GET", "/metrics")
        if status >= 400:
            raise ServeError(status, payload)
        return payload

    def shutdown(self) -> Dict:
        """Ask the server to drain and exit."""
        status, _headers, payload = self._request("POST", "/v1/shutdown")
        if status >= 400:
            raise ServeError(status, payload)
        return payload


def _job_id(job: Union[str, Dict]) -> str:
    return job["job"] if isinstance(job, dict) else job
