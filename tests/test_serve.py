"""Round-trip tests for ``repro serve`` over a real HTTP socket.

A :class:`~repro.serve.ReproServer` on an ephemeral port, driven through
:mod:`http.client`: submit the fig4-mini preset, poll to completion, fetch
cells and the frontier, then prove the second identical submission was
served entirely from the store (zero recompute) via the telemetry journal.
Malformed request framing is driven over raw sockets.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time

import pytest

from repro.campaign.spec import campaign_preset
from repro.obs import telemetry
from repro.serve import MAX_JOBS, ReproServer, _Handler, _RequestError
from repro.sim.simulator import SimulationResult

POLL_TIMEOUT = 300.0


@pytest.fixture
def server(tmp_path):
    server = ReproServer(f"sqlite:{tmp_path / 'serve.db'}", port=0, jobs=1)
    server.start()
    yield server
    server.shutdown()


@pytest.fixture
def idle_server(tmp_path):
    """A server that is never started: ``dispatch`` answers, no sweep runs."""
    server = ReproServer(f"sqlite:{tmp_path / 'idle.db'}", port=0, jobs=1)
    yield server
    server._httpd.server_close()


def request(server, method, path, body=None):
    """One HTTP exchange; returns ``(status, decoded JSON)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def raw_exchange(server, data: bytes, timeout: float = 5) -> bytes:
    """Send ``data`` over a raw socket and read until the server closes it.

    The socket stays open on our side, so a server that leaves it open
    makes recv raise socket.timeout.  A reset counts as closed: the server
    may close with part of the request still unread.
    """
    response = b""
    with socket.create_connection((server.host, server.port), timeout=timeout) as sock:
        sock.sendall(data)
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            response += chunk
    return response


def poll_until_done(server, job_id):
    deadline = time.time() + POLL_TIMEOUT
    while time.time() < deadline:
        status, job = request(server, "GET", f"/api/v1/campaigns/{job_id}")
        assert status == 200
        if job["state"] == "done":
            return job
        assert job["state"] != "failed", job.get("error")
        time.sleep(0.1)
    raise AssertionError(f"campaign {job_id} never finished")


class TestEndpoints:
    def test_health(self, server):
        status, payload = request(server, "GET", "/api/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["store"].startswith("sqlite:")

    def test_accepted_sockets_set_tcp_nodelay(self, server, monkeypatch):
        # Headers and body leave in two writes; under Nagle's algorithm the
        # body would wait for the client's delayed ACK on every keep-alive
        # reply.
        nodelay = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            option = handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            nodelay.append(option)

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        status, _ = request(server, "GET", "/api/v1/health")
        assert status == 200
        assert nodelay and all(nodelay), nodelay

    def test_client_gone_before_reply_is_journaled_quietly(self, server, monkeypatch, capfd):
        # A client that resets the connection while its request is being
        # dispatched: the reply fails, which must end the connection
        # quietly and still journal the request, flagged client_gone.
        entered, release, finished = threading.Event(), threading.Event(), threading.Event()
        dispatch = server.dispatch

        def gated_dispatch(method, path, body):
            entered.set()
            release.wait(30)
            return dispatch(method, path, body)

        shutdown_request = server._httpd.shutdown_request

        def recording_shutdown(request):
            shutdown_request(request)
            finished.set()

        monkeypatch.setattr(server, "dispatch", gated_dispatch)
        monkeypatch.setattr(server._httpd, "shutdown_request", recording_shutdown)
        with socket.create_connection((server.host, server.port), timeout=30) as sock:
            sock.sendall(b"GET /api/v1/health HTTP/1.1\r\nHost: test\r\n\r\n")
            assert entered.wait(30)
            # Linger 0: close() resets the connection instead of a FIN.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        release.set()
        assert finished.wait(30)

        assert capfd.readouterr().err == ""
        records = telemetry.read_journal(server.store.telemetry_path)
        served = [rec for rec in records if rec["record"] == "serve_request"]
        assert [(rec["path"], rec.get("client_gone")) for rec in served] == [
            ("/api/v1/health", True)
        ]
        telemetry.validate_record(served[0], telemetry.load_schema())

    def test_unknown_path_is_404(self, server):
        status, payload = request(server, "GET", "/nope")
        assert status == 404
        assert "api/v1" in payload["error"]

    def test_submit_needs_a_preset(self, server):
        status, payload = request(server, "POST", "/api/v1/campaigns", body={})
        assert status == 400
        assert "preset" in payload["error"]
        status, payload = request(
            server, "POST", "/api/v1/campaigns", body={"preset": "fig99"}
        )
        assert status == 400

    def test_bad_body_is_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request(
                "POST", "/api/v1/campaigns", body="not json",
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "content_length, expected",
        [("-1", 400), ("abc", 400), ("1000000000000", 413)],
    )
    def test_bad_content_length_is_answered_and_closed(
        self, server, content_length, expected
    ):
        head = (
            "POST /api/v1/campaigns HTTP/1.1\r\n"
            f"Host: {server.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n"
        )
        # Keep-alive on our side: the server must answer without reading a
        # body, then close.
        response = raw_exchange(server, head.encode("ascii"))
        status_line, _, rest = response.partition(b"\r\n")
        assert int(status_line.split()[1]) == expected
        assert b"Connection: close" in rest
        assert "error" in json.loads(rest.partition(b"\r\n\r\n")[2])

        lines = server.store.telemetry_path.read_text().splitlines()
        served = [json.loads(line) for line in lines]
        assert {
            (rec["method"], rec["path"], rec["status"])
            for rec in served
            if rec["record"] == "serve_request"
        } == {("POST", "/api/v1/campaigns", expected)}
        status, payload = request(server, "GET", "/api/v1/health")
        assert status == 200 and payload["status"] == "ok"

    def test_stalled_connections_time_out(self, server, monkeypatch, capfd):
        # Clients that stop mid-header or send a body shorter than its
        # Content-Length must not pin a handler thread each: after the idle
        # timeout every such thread ends, the short body is answered 408
        # and journaled, and nothing is printed.
        assert _Handler.timeout is not None
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        baseline = threading.active_count()
        head = (
            "POST /api/v1/campaigns HTTP/1.1\r\n"
            f"Host: {server.host}\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: 100\r\n\r\n"
        )
        stalled = []
        try:
            for _ in range(5):
                sock = socket.create_connection((server.host, server.port), timeout=10)
                sock.sendall(b"GET /api/v1/health HTTP/1.1\r\nHost: te")
                stalled.append(sock)
            response = raw_exchange(server, head.encode("ascii") + b'{"preset"', timeout=10)
            deadline = time.time() + 10
            while threading.active_count() > baseline and time.time() < deadline:
                time.sleep(0.05)
            assert threading.active_count() <= baseline
        finally:
            for sock in stalled:
                sock.close()

        status_line, _, rest = response.partition(b"\r\n")
        assert int(status_line.split()[1]) == 408
        assert b"Connection: close" in rest
        assert "error" in json.loads(rest.partition(b"\r\n\r\n")[2])
        records = telemetry.read_journal(server.store.telemetry_path)
        served = [rec for rec in records if rec["record"] == "serve_request"]
        assert [(rec["method"], rec["status"]) for rec in served] == [("POST", 408)]
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize(
        "raw, http09, method, path, status",
        [
            # one word: parse_request answers HTTP/0.9 style, without a
            # status line, so the status is read from the journal
            pytest.param(b"GARBAGE\r\n", True, "-", "-", 400, id="bad-request-line"),
            pytest.param(
                b"GET /api/v1/health HTTP/1.1\r\n"
                + b"".join(b"X-Flood-%d: 1\r\n" % index for index in range(150))
                + b"\r\n",
                False,
                "GET",
                "/api/v1/health",
                431,
                id="header-flood",
            ),
            pytest.param(
                b"PUT /api/v1/health HTTP/1.1\r\nHost: test\r\n\r\n",
                False,
                "PUT",
                "/api/v1/health",
                501,
                id="unknown-method",
            ),
            # 65,537 bytes without a newline: a request line over 64 KiB,
            # all of it read before the reply, so the close is no reset
            pytest.param(b"GET /" + b"a" * 65532, False, "-", "-", 414, id="request-line-too-long"),
        ],
    )
    def test_http_server_error_replies_are_journaled(
        self, server, capfd, raw, http09, method, path, status
    ):
        # http.server answers these itself, before _handle runs: the reply
        # closes the connection, prints nothing and is journaled once.
        response = raw_exchange(server, raw)
        assert response
        if http09:
            assert not response.startswith(b"HTTP/")
        else:
            assert int(response.split()[1]) == status
        records = telemetry.read_journal(server.store.telemetry_path)
        assert [(rec["method"], rec["path"], rec["status"]) for rec in records] == [
            (method, path, status)
        ]
        telemetry.validate_record(records[0], telemetry.load_schema())
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "override, named",
        [
            pytest.param({"benchmarks": ["nope"]}, "nope", id="unknown-benchmark"),
            pytest.param({"benchmarks": "gzip"}, "benchmarks", id="benchmarks-not-a-list"),
            pytest.param({"instructions": 1.5}, "instructions", id="fractional-instructions"),
            pytest.param({"instructions": 10**12}, "instructions", id="huge-instructions"),
            pytest.param({"instructions": True}, "instructions", id="bool-instructions"),
            pytest.param({"seed": "x"}, "seed", id="string-seed"),
            pytest.param({"seed": -1}, "seed", id="negative-seed"),
            pytest.param({"seed": True}, "seed", id="bool-seed"),
            pytest.param({"jobs": True}, "jobs", id="bool-jobs"),
            pytest.param({"jobs": MAX_JOBS + 1}, "jobs", id="jobs-above-cpu-count"),
            pytest.param({"instrucions": 800}, "instrucions", id="misspelt-key"),
        ],
    )
    def test_malformed_submission_is_400_and_queues_nothing(
        self, idle_server, override, named
    ):
        body = {"preset": "fig4-mini", **override}
        with pytest.raises(_RequestError) as excinfo:
            idle_server.dispatch("POST", "/api/v1/campaigns", body)
        assert excinfo.value.status == 400
        assert named in str(excinfo.value)
        assert idle_server.dispatch("GET", "/api/v1/campaigns", None) == (
            200,
            {"campaigns": []},
        )
        assert idle_server._queue.empty()

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 3},
            {"warmup": 0},
            {
                "benchmarks": ["gzip"],
                "instructions": 800,
                "seed": 0,
                "warmup": 0.2,
                "jobs": 1,
            },
        ],
        ids=["seed", "integer-warmup", "every-field"],
    )
    def test_valid_submission_is_queued(self, idle_server, override):
        status, job = idle_server.dispatch(
            "POST", "/api/v1/campaigns", {"preset": "fig4-mini", **override}
        )
        assert status == 202 and job["state"] == "queued"
        _, listing = idle_server.dispatch("GET", "/api/v1/campaigns", None)
        assert [entry["id"] for entry in listing["campaigns"]] == [job["id"]]

    def test_missing_cell_is_404(self, server):
        status, _ = request(server, "GET", "/api/v1/cells/deadbeef")
        assert status == 404

    def test_frontier_before_done_is_409(self, server):
        status, _ = request(server, "GET", "/api/v1/campaigns/c0001/frontier")
        assert status == 404  # not submitted at all


class TestRoundTrip:
    def test_submit_poll_fetch_and_zero_recompute(self, server):
        # --- first submission computes every cell -----------------------
        status, job = request(
            server, "POST", "/api/v1/campaigns", body={"preset": "fig4-mini"}
        )
        assert status == 202
        assert job["state"] == "queued" or job["state"] == "running"
        first = poll_until_done(server, job["id"])
        spec = campaign_preset("fig4-mini")
        expected_keys = sorted(cell.key() for cell in spec.cells())
        assert first["keys"] == expected_keys
        assert first["cells_computed"] == len(expected_keys)
        assert first["cells_skipped"] == 0

        # --- cells come back verbatim from the shared store -------------
        for key in expected_keys[:3]:
            status, record = request(server, "GET", f"/api/v1/cells/{key}")
            assert status == 200
            assert record == server.store.record(key)

        # --- frontier: baseline normalizes to (1.0, 1.0) ----------------
        status, frontier = request(
            server, "GET", f"/api/v1/campaigns/{first['id']}/frontier"
        )
        assert status == 200
        assert frontier["objectives"] == ["runtime", "energy"]
        by_config = {point["config"]: point["values"] for point in frontier["points"]}
        baseline_values = by_config[frontier["baseline"]]
        assert baseline_values["runtime"] == pytest.approx(1.0)
        assert baseline_values["energy"] == pytest.approx(1.0)
        assert frontier["frontier"]  # non-empty

        # --- second identical submission: zero recompute ----------------
        status, job2 = request(
            server, "POST", "/api/v1/campaigns", body={"preset": "fig4-mini"}
        )
        assert status == 202
        second = poll_until_done(server, job2["id"])
        assert second["cells_computed"] == 0
        assert second["cells_skipped"] == len(expected_keys)
        assert second["keys"] == expected_keys

        # Proof from the journal, not just the in-memory counters: the
        # second submission's run_end records zero computed cells.  The
        # reader skips the torn tail of a request record still being written.
        lines = telemetry.read_journal(server.store.telemetry_path)
        run_end = {
            rec["run_id"]: rec for rec in lines if rec["record"] == "run_end"
        }
        assert run_end[second["run_id"]]["cells_computed"] == 0
        assert run_end[first["run_id"]]["cells_computed"] == len(expected_keys)
        # The footer counts the store hits; no cell record repeats them.
        assert not any(
            rec["record"] == "cell" and rec["run_id"] == second["run_id"] for rec in lines
        )

        # Every journal line — serve_request records included — validates
        # against the checked-in schema.
        schema = telemetry.load_schema()
        kinds = set()
        for record in lines:
            telemetry.validate_record(record, schema)
            kinds.add(record["record"])
        assert "serve_request" in kinds
        served = [rec for rec in lines if rec["record"] == "serve_request"]
        assert all(rec["run_id"] == server.journal.run_id for rec in served)
        assert {(rec["method"], rec["status"]) for rec in served} >= {
            ("POST", 202),
            ("GET", 200),
        }

    def test_campaign_listing(self, server):
        request(server, "POST", "/api/v1/campaigns", body={"preset": "fig4-mini"})
        status, listing = request(server, "GET", "/api/v1/campaigns")
        assert status == 200
        assert [job["id"] for job in listing["campaigns"]] == ["c0001"]

    def test_finished_job_keeps_its_frontier_not_its_results(self, idle_server):
        status, submitted = idle_server.dispatch(
            "POST",
            "/api/v1/campaigns",
            {"preset": "fig4-mini", "benchmarks": ["gzip"], "instructions": 300},
        )
        assert status == 202
        frontier_path = f"/api/v1/campaigns/{submitted['id']}/frontier"
        with pytest.raises(_RequestError) as queued:
            idle_server.dispatch("GET", frontier_path, None)
        assert queued.value.status == 409
        job = idle_server._job(submitted["id"])
        idle_server._run_job(job)  # the worker thread's step, run inline
        assert job.state == "done"
        held, values = [], list(vars(job).values())
        while values:
            value = values.pop()
            if isinstance(value, dict):
                values += [*value.keys(), *value.values()]
            elif isinstance(value, (list, tuple)):
                values += value
            elif isinstance(value, SimulationResult):
                held.append(value)
        assert not held
        status, frontier = idle_server.dispatch("GET", frontier_path, None)
        assert status == 200 and frontier is job.frontier
