"""End-to-end HTTP serve tests: equivalence, backpressure, coalescing,
drain, restart re-serving, the kept-alive transport and held waits,
telemetry endpoints, CLI."""

import http.client
import json
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.engine import RunSpec
from repro.faults import FaultConfig
from repro.serve import Client, JobRejected, ReproServer, ServeError, ServerConfig


@pytest.fixture
def server(tmp_path):
    config = ServerConfig(port=0, quiet=True, cache_dir=tmp_path / "cache")
    with ReproServer(config) as running:
        yield running


@pytest.fixture
def client(server):
    with Client(server.url) as connected:
        yield connected


def _gate_engine(server):
    """Wrap the server engine's run_many behind an Event so jobs stay
    queued deterministically; returns the gate."""
    gate = threading.Event()
    original = server.scheduler.engine.run_many

    def gated(*args, **kwargs):
        assert gate.wait(30.0), "test forgot to open the gate"
        return original(*args, **kwargs)

    server.scheduler.engine.run_many = gated
    return gate


# -- end-to-end equivalence -----------------------------------------------------


def test_served_result_is_byte_identical_to_direct_simulate(client):
    direct = repro.simulate("sieve", model="explicit-switch", processors=2,
                            level=4, scale="tiny")
    [payload] = client.result(
        client.submit({"app": "sieve", "model": "eswitch", "processors": 2,
                       "level": 4, "scale": "tiny"}),
        timeout=120.0,
    )
    assert payload["stats"] == direct.stats.to_dict()
    assert payload["wall_cycles"] == direct.wall_cycles
    assert payload["config"] == direct.config.to_dict()


def test_served_sweep_matches_direct_sweep(client):
    specs = [
        RunSpec(app=app, model="switch-on-load", processors=2, level=2,
                scale="tiny")
        for app in ("sieve", "sor")
    ]
    direct = repro.sweep(specs)
    payloads = client.result(client.submit(specs), timeout=240.0)
    assert [p["stats"] for p in payloads] == [
        r.stats.to_dict() for r in direct
    ]


def test_served_fault_spec_matches_direct(client):
    faults = FaultConfig(latency_model="uniform", jitter=50, seed=1,
                         loss_rate=0.01)
    spec = RunSpec(app="sieve", model="explicit-switch", processors=2,
                   level=4, scale="tiny", overrides=(("faults", faults),))
    direct = repro.simulate("sieve", model="explicit-switch", processors=2,
                            level=4, scale="tiny", faults=faults)
    [payload] = client.result(client.submit(spec), timeout=240.0)
    assert payload["stats"] == direct.stats.to_dict()
    assert payload["stats"]["retries"] > 0  # the faults actually fired


# -- coalescing -----------------------------------------------------------------


def test_four_concurrent_clients_one_engine_run(server, client):
    spec = RunSpec(app="sor", model="switch-on-load", processors=2, level=2,
                   scale="tiny")
    accepted = []

    def submit():
        accepted.append(Client(server.url).submit(spec))

    threads = [threading.Thread(target=submit) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)

    assert len({a["job"] for a in accepted}) == 1  # one job for all four
    assert sorted(a["coalesced"] for a in accepted) == [False, True, True, True]
    results = [client.result(a, timeout=120.0) for a in accepted]
    assert all(result == results[0] for result in results)
    assert server.engine.report()["executed"] == 1  # exactly one execution
    metrics = client.metrics()
    assert "serve_jobs_coalesced_total 3" in metrics
    assert "serve_engine_executed_total 1" in metrics
    assert client.status(accepted[0])["clients"] == 4


# -- admission control / backpressure -------------------------------------------


def test_queue_full_gives_429_with_retry_after(server, client):
    gate = _gate_engine(server)
    server.scheduler.max_queue_depth = 1
    client.submit(RunSpec(app="sieve", model="ideal", scale="tiny"))
    time.sleep(0.1)  # worker picks the first job up (now gated, RUNNING)
    client.submit(RunSpec(app="sor", model="ideal", scale="tiny"))  # queued
    with pytest.raises(JobRejected) as excinfo:
        client.submit(RunSpec(app="blkmat", model="ideal", scale="tiny"))
    assert excinfo.value.status == 429
    assert excinfo.value.retry_after >= 1
    # The raw HTTP reply carries the Retry-After header.
    request = urllib.request.Request(
        server.url + "/v1/jobs",
        data=json.dumps(
            {"spec": {"app": "mp3d", "model": "ideal", "scale": "tiny"}}
        ).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as http_excinfo:
        urllib.request.urlopen(request, timeout=10.0)
    assert http_excinfo.value.code == 429
    assert int(http_excinfo.value.headers["Retry-After"]) >= 1
    gate.set()


def test_draining_server_gives_503(server, client):
    server.scheduler.drain(timeout=30.0)
    with pytest.raises(JobRejected) as excinfo:
        client.submit(RunSpec(app="sieve", model="ideal", scale="tiny"))
    assert excinfo.value.status == 503
    assert client.health()["status"] == "draining"


def test_oversized_body_gives_413(server):
    from repro.serve.server import MAX_BODY_BYTES

    request = urllib.request.Request(
        server.url + "/v1/jobs",
        data=b"x" * (MAX_BODY_BYTES + 1),
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10.0)
    assert excinfo.value.code == 413


# -- lifecycle ------------------------------------------------------------------


def test_graceful_shutdown_settles_inflight_jobs(tmp_path):
    config = ServerConfig(port=0, quiet=True, cache_dir=tmp_path / "cache")
    server = ReproServer(config).start()
    client = Client(server.url)
    accepted = client.submit(
        RunSpec(app="sieve", model="switch-on-load", processors=2, level=2,
                scale="tiny")
    )
    assert server.shutdown(drain=True, timeout=120.0)  # True = clean drain
    job = server.scheduler.get(accepted["job"])
    assert job is not None and job.state.value == "done"
    assert job.results  # settled with payloads before the server exited


def test_restart_reserves_finished_job_without_recompute(tmp_path):
    config = ServerConfig(port=0, quiet=True, cache_dir=tmp_path / "cache")
    spec = RunSpec(app="sieve", model="switch-on-load", processors=2, level=2,
                   scale="tiny")

    with ReproServer(config) as first:
        first_client = Client(first.url)
        accepted = first_client.submit(spec)
        original = first_client.result(accepted, timeout=120.0)
        assert first.engine.report()["executed"] == 1

    with ReproServer(config) as second:
        assert second.recovered == 1
        second_client = Client(second.url)
        status = second_client.wait(accepted["job"], timeout=60.0)
        assert status["state"] == "done"
        assert second_client.result(accepted["job"]) == original
        report = second.engine.report()
        assert report["executed"] == 0  # nothing recomputed
        assert report["cached"] == 1    # re-served from the disk cache
        # And a resubmission of the same spec coalesces onto the
        # recovered job instead of creating new work.
        again = second_client.submit(spec)
        assert again["job"] == accepted["job"] and again["coalesced"]


def test_failed_job_surfaces_error_over_http(client):
    spec = RunSpec(app="sieve", model="switch-on-load", scale="tiny",
                   overrides=(("max_cycles", 100),))
    accepted = client.submit(spec)
    status = client.wait(accepted, timeout=60.0)
    assert status["state"] == "failed"
    assert status["error"]["type"] == "SimulationTimeout"
    with pytest.raises(ServeError) as excinfo:
        client.result(accepted)
    assert excinfo.value.status == 500


# -- transport: one kept-alive connection, held waits ---------------------------


def _count_connections(server):
    """Record every connection the server accepts from now on."""
    accepted = []
    original = server.httpd.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        original(request, client_address)

    server.httpd.process_request = counting
    return accepted


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


_TINY = RunSpec(app="sieve", model="ideal", scale="tiny")


def test_one_client_sends_its_requests_over_one_connection(server, client):
    accepted = _count_connections(server)
    job = client.submit(_TINY)
    for _ in range(19):
        client.status(job)
    assert len(accepted) == 1


def test_sequential_requests_are_not_held_back_by_nagle(server, client):
    # With Nagle's algorithm on, each reply's body waits for the client's
    # delayed ACK of its headers: about 40 ms a request, 0.8 s for 20.
    job = client.submit(_TINY)
    start = time.perf_counter()
    for _ in range(20):
        client.status(job)
    assert time.perf_counter() - start < 0.4


@pytest.mark.parametrize("call", ["wait", "result"])
def test_waiting_for_a_job_is_one_request(server, client, call):
    gate = _gate_engine(server)
    job = client.submit(_TINY)
    requests = []
    original = client._request

    def counting(method, path, *args, **kwargs):
        requests.append((method, path))
        return original(method, path, *args, **kwargs)

    client._request = counting
    threading.Timer(0.3, gate.set).start()
    if call == "wait":
        assert client.wait(job, timeout=120.0)["state"] == "done"
        path = f"/v1/jobs/{job['job']}?wait="
    else:
        assert client.result(job, timeout=120.0)[0]["wall_cycles"] > 0
        path = f"/v1/jobs/{job['job']}/result?wait="
    assert len(requests) == 1
    assert requests[0][0] == "GET" and requests[0][1].startswith(path)


def test_idle_server_shuts_down_promptly(tmp_path):
    config = ServerConfig(port=0, quiet=True, cache_dir=tmp_path / "cache")
    server = ReproServer(config).start()
    time.sleep(0.1)  # the HTTP loop is now waiting for a connection
    started = time.monotonic()
    server.shutdown()
    assert time.monotonic() - started < 0.2


def test_shutdown_releases_held_wait_and_closes_connections(tmp_path):
    config = ServerConfig(port=0, quiet=True, cache_dir=tmp_path / "cache")
    server = ReproServer(config).start()
    gate = _gate_engine(server)
    client = Client(server.url)
    job = client.submit(_TINY)
    idle = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
    idle.request("GET", "/healthz")
    assert idle.getresponse().read()
    replies = []

    def held():
        status, _, payload = client._request(
            "GET", f"/v1/jobs/{job['job']}/result?wait=30"
        )
        replies.append((time.monotonic(), status, payload))

    waiter = threading.Thread(target=held)
    waiter.start()
    time.sleep(0.3)  # the request is now held on the running job
    started = time.monotonic()
    stopper = threading.Thread(target=server.shutdown,
                               kwargs={"drain": False})
    stopper.start()
    waiter.join(10.0)
    gate.set()  # let the worker finish so the shutdown can complete
    stopper.join(60.0)
    assert not stopper.is_alive()
    [(replied, status, payload)] = replies
    assert started <= replied < started + 1.0
    assert status == 202 and payload["state"] == "running"
    # The stopped server answers nothing on its kept-alive connections.
    with pytest.raises(OSError):
        idle.request("GET", "/healthz")
        idle.getresponse()
    idle.close()
    with pytest.raises(OSError):
        client.status(job)


def test_client_hanging_up_on_a_held_request_is_not_a_server_error(
    server, client, capsys
):
    gate = _gate_engine(server)
    job = client.submit(_TINY)
    for _ in range(3):
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(
                f"GET /v1/jobs/{job['job']}/result?wait=0.3 HTTP/1.1\r\n"
                "Host: test\r\n\r\n".encode()
            )
    time.sleep(0.8)  # every hold has run out and its reply hit a closed socket
    gate.set()
    assert "Traceback" not in capsys.readouterr().err


def _serve_process(port, tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "serve", "--port", str(port),
         "--cache-dir", str(tmp_path / "cache"), "--quiet"],
    )
    deadline = time.monotonic() + 60.0
    while True:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
            return proc
        except OSError:
            if proc.poll() is not None or time.monotonic() > deadline:
                proc.kill()
                raise
            time.sleep(0.05)


def _stop_process(proc):
    """SIGTERM; the server must exit promptly although a client still
    holds an idle kept-alive connection to it."""
    proc.terminate()
    try:
        assert proc.wait(timeout=10.0) == 0
    finally:
        proc.kill()


def test_client_reconnects_once_across_a_server_restart(tmp_path, monkeypatch):
    connects = []
    connect = http.client.HTTPConnection.connect

    def counting(self):
        connects.append(self.port)
        connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    port = _free_port()
    with Client(f"http://127.0.0.1:{port}") as client:
        for _ in range(2):  # the same client, before and after a restart
            proc = _serve_process(port, tmp_path)
            try:
                for _ in range(3):
                    assert client.health()["status"] == "ok"
            finally:
                _stop_process(proc)
    assert connects == [port, port]


def test_refused_connection_is_oserror_and_client_recovers(tmp_path):
    port = _free_port()
    config = ServerConfig(port=port, quiet=True, cache_dir=tmp_path / "cache")
    with Client(f"http://127.0.0.1:{port}", timeout=5.0) as client:
        with pytest.raises(OSError):
            client.health()
        with ReproServer(config):
            assert client.health()["status"] == "ok"


def test_garbled_reply_is_oserror():
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()

        def answer():
            connection, _ = listener.accept()
            with connection:
                connection.recv(65536)
                connection.sendall(b"NOT-HTTP\r\n\r\n")

        thread = threading.Thread(target=answer)
        thread.start()
        client = Client(f"http://127.0.0.1:{listener.getsockname()[1]}",
                        timeout=5.0)
        with pytest.raises(OSError):
            client.health()
        thread.join(5.0)
        assert not thread.is_alive()


def test_timed_out_request_does_not_poison_the_next_one(server):
    gate = _gate_engine(server)
    with Client(server.url, timeout=0.3) as client:
        job = client.submit(_TINY)
        with pytest.raises(OSError):  # the socket times out mid-request
            client._request("GET", f"/v1/jobs/{job['job']}?wait=5")
        assert client.status(job)["state"] in ("queued", "running")
    gate.set()


def test_wait_query_must_be_a_number_and_is_capped(server, client,
                                                   monkeypatch):
    import repro.serve.server as server_module

    gate = _gate_engine(server)
    job = client.submit(_TINY)
    for bad in ("abc", "nan"):
        status, _, payload = client._request(
            "GET", f"/v1/jobs/{job['job']}?wait={bad}"
        )
        assert status == 400 and "wait" in payload["error"]
    monkeypatch.setattr(server_module, "MAX_WAIT_S", 0.3)
    start = time.monotonic()
    status, _, payload = client._request(
        "GET", f"/v1/jobs/{job['job']}/result?wait=1e9"
    )
    assert 0.3 <= time.monotonic() - start < 5.0
    assert status == 202 and payload["state"] in ("queued", "running")
    gate.set()


# -- telemetry ------------------------------------------------------------------


def test_healthz_shape(client):
    health = client.health()
    assert health["status"] == "ok"
    assert "uptime" in health and "engine" in health
    assert health["engine"]["workers"] == 1


def test_metrics_endpoint_is_prometheus_text(server, client):
    client.result(
        client.submit(RunSpec(app="sieve", model="switch-on-load",
                              processors=2, level=2, scale="tiny")),
        timeout=120.0,
    )
    text = client.metrics()
    assert "# TYPE serve_jobs_submitted_total counter" in text
    assert "serve_jobs_submitted_total 1" in text
    assert "serve_jobs_completed_total 1" in text
    assert "serve_engine_simulated_cycles_total" in text


def test_unknown_routes_and_jobs_404(server, client):
    with pytest.raises(ServeError) as excinfo:
        client.status("jdoesnotexist")
    assert excinfo.value.status == 404
    for path in ("/nope", "/v1/jobs/x/y/z"):
        status, _, _ = client._request("GET", path)
        assert status == 404


def test_bad_submit_body_400(server, client):
    status, _, payload = client._request("POST", "/v1/jobs", {"nope": 1})
    assert status == 400 and "error" in payload


# -- CLI ------------------------------------------------------------------------


def test_cli_submit_status_and_shutdown(tmp_path, capsys):
    from repro.serve.cli import main

    config = ServerConfig(port=0, quiet=True, cache_dir=tmp_path / "cache")
    server = ReproServer(config).start()
    url = server.url
    try:
        assert main(["submit", "sieve", "--model", "eswitch",
                     "--processors", "2", "--level", "4", "--scale", "tiny",
                     "--url", url]) == 0
        payload = json.loads(capsys.readouterr().out)
        direct = repro.simulate("sieve", model="explicit-switch",
                                processors=2, level=4, scale="tiny")
        assert payload["stats"] == direct.stats.to_dict()

        job_id = repro.serve.job_id_for(
            [RunSpec(app="sieve", model="explicit-switch", processors=2,
                     level=4, scale="tiny", latency=200).key()]
        )
        assert main(["status", job_id, "--url", url]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == "done"

        assert main(["shutdown", "--url", url]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "draining"
    finally:
        server.shutdown()


def test_cli_unreachable_server_exit_code():
    from repro.serve.cli import main

    assert main(["status", "jx", "--url", "http://127.0.0.1:1"]) == 1


def test_python_m_repro_serve_help():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "repro-serve" in proc.stdout
