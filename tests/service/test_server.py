"""Server tests: status taxonomy, endpoints, drain, and the CLI.

The transport-independent :class:`QueryService` is tested directly
(inline mode shares every code path above the dispatch seam with the
pool); one end-to-end slice runs over real HTTP, and one over the
``python -m repro serve`` subprocess including SIGTERM drain.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.governor import CancelToken
from repro.service.server import (
    QueryService,
    ServiceConfig,
    _make_server,
)
from repro.testing.chaos import Fault

# ----------------------------------------------------------- status map


@pytest.mark.parametrize("reply,status", [
    ({"ok": True}, 200),
    ({"ok": False, "error": {"kind": "input"}}, 400),
    ({"ok": False, "error": {"kind": "resource",
                             "type": "RowLimitExceeded"}}, 422),
    ({"ok": False, "error": {"kind": "resource",
                             "type": "DeadlineExceeded"}}, 504),
    ({"ok": False, "error": {"kind": "resource",
                             "type": "EvaluationCancelled"}}, 504),
    ({"ok": False, "error": {"kind": "overload"}}, 503),
    ({"ok": False, "error": {"kind": "crash"}}, 502),
    ({"ok": False, "error": {"kind": "internal"}}, 500),
    ({"ok": False, "error": {}}, 500),
])
def test_status_taxonomy(reply, status):
    assert QueryService._status_of(reply) == status


# -------------------------------------------------------- inline service


@pytest.fixture
def service(snapshot_path):
    service = QueryService(ServiceConfig(workers=0, max_concurrency=2,
                                         max_queue_depth=2))
    service.start()
    assert service.load("g", str(snapshot_path))["ok"]
    return service


def test_query_answers_match_the_oracle(service, oracle):
    for name in ("tc", "apath"):
        status, reply = service.handle_query(
            {"structure": "g", "query": name})
        assert status == 200, reply
        assert reply["rows"] == oracle(name)


def test_missing_fields_are_400(service):
    status, reply = service.handle_query({"query": "tc"})
    assert status == 400 and reply["error"]["kind"] == "input"
    status, _ = service.handle_query({"structure": "g"})
    assert status == 400


def test_unknown_query_is_400(service):
    status, reply = service.handle_query({"structure": "g", "query": "zz"})
    assert status == 400
    assert "zz" in reply["error"]["message"]


def test_bad_deadline_is_400(service):
    status, _ = service.handle_query(
        {"structure": "g", "query": "tc", "deadline_seconds": "soon"})
    assert status == 400
    status, _ = service.handle_query(
        {"structure": "g", "query": "tc", "deadline_seconds": -1})
    assert status == 400


def test_zero_deadline_is_504(service):
    status, reply = service.handle_query(
        {"structure": "g", "query": "tc", "deadline_seconds": 0.0})
    assert status == 504
    assert reply["error"]["type"] == "DeadlineExceeded"


def test_row_limit_is_422(service):
    status, reply = service.handle_query(
        {"structure": "g", "query": "tc", "max_rows": 1})
    assert status == 422
    assert reply["error"]["type"] == "RowLimitExceeded"


def test_cancelled_client_token_is_a_typed_cancellation(service):
    token = CancelToken()
    token.cancel()
    status, reply = service.handle_query(
        {"structure": "g", "query": "tc"}, cancel_token=token)
    assert status == 504
    assert reply["error"]["type"] == "EvaluationCancelled"


def test_overflow_chaos_is_503_with_retry_after(service, inject_faults):
    inject_faults(Fault("service.queue.overflow"))
    status, reply = service.handle_query({"structure": "g", "query": "tc"})
    assert status == 503
    assert reply["error"]["retry_after"] >= 1.0


def test_draining_service_sheds_with_503(service):
    service.drain()
    status, reply = service.handle_query({"structure": "g", "query": "tc"})
    assert status == 503 and reply["error"]["type"] == "Draining"
    assert not service.ready()


def test_health_reports_mode_and_admission(service):
    body = service.health()
    assert body["mode"] == "inline" and body["ready"]
    assert body["admission"]["max_concurrency"] == 2


# ------------------------------------------------------------- real HTTP


@pytest.fixture
def http_server(service):
    server = _make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()
    thread.join(timeout=2.0)


def _request(address, method, path, body=None):
    connection = http.client.HTTPConnection(*address, timeout=10.0)
    try:
        connection.request(
            method, path,
            body=None if body is None else json.dumps(body),
            headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


def test_http_end_to_end(http_server, oracle, snapshot_path):
    status, _, body = _request(http_server, "GET", "/ready")
    assert status == 200 and body["ready"]
    # The limit probe must run before the cache is warm: a cached answer
    # re-materializes nothing, so no limit can trip on it.
    status, _, body = _request(http_server, "POST", "/query",
                               {"structure": "g", "query": "tc",
                                "max_rows": 1})
    assert status == 422, body
    status, _, body = _request(http_server, "POST", "/query",
                               {"structure": "g", "query": "tc"})
    assert status == 200 and body["rows"] == oracle("tc")
    status, _, body = _request(http_server, "GET", "/health")
    assert status == 200 and body["mode"] == "inline"
    status, _, body = _request(http_server, "POST", "/load",
                               {"name": "g2", "path": str(snapshot_path)})
    assert status == 200, body
    status, _, _ = _request(http_server, "GET", "/nope")
    assert status == 404


def test_http_overload_carries_retry_after(http_server, inject_faults):
    inject_faults(Fault("service.queue.overflow"))
    status, headers, body = _request(http_server, "POST", "/query",
                                     {"structure": "g", "query": "tc"})
    assert status == 503
    assert int(headers["Retry-After"]) >= 1


def test_http_rejects_non_json_bodies(http_server):
    connection = http.client.HTTPConnection(*http_server, timeout=10.0)
    try:
        connection.request("POST", "/query", body=b"{nope",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 400
        assert b"not valid JSON" in response.read()
    finally:
        connection.close()


class _SendCounter(io.RawIOBase):
    """The write side of a fake socket: one entry per send."""

    def __init__(self):
        self.sends: list[bytes] = []

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sends.append(bytes(data))
        return len(data)


class _FakeConnection:
    """Just enough socket for ``StreamRequestHandler.setup``: requests are
    read from bytes, and every send the handler makes is recorded whether
    it writes through a buffered file or straight to ``sendall``.  The
    disconnect watcher polls an idle socket pair that never reports EOF."""

    def __init__(self, incoming: bytes, idle):
        self.incoming = incoming
        self.out = _SendCounter()
        self.fileno = idle.fileno
        self.recv = idle.recv

    def makefile(self, mode: str, buffering: int = -1):
        if "r" in mode:
            return io.BufferedReader(io.BytesIO(self.incoming))
        return io.BufferedWriter(self.out)

    def sendall(self, data) -> None:
        self.out.write(data)


def test_keep_alive_replies_leave_in_one_send_each(service):
    """Headers and body of a reply must leave in a single send: split in
    two, Nagle's algorithm and the client's delayed ACK stall every
    request on a keep-alive connection by about 40 ms."""
    from repro.service.server import _Handler

    handler = type("Counted", (_Handler,), {"service": service,
                                            "log_message": lambda *a: None})
    request = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
    body = json.dumps({"structure": "g", "query": "tc"}).encode()
    query = (b"POST /query HTTP/1.1\r\nHost: x\r\n"
             b"Content-Type: application/json\r\n"
             + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
    idle, peer = socket.socketpair()
    try:
        connection = _FakeConnection(request + query + request, idle)
        handler(connection, ("127.0.0.1", 0), None)
    finally:
        idle.close()
        peer.close()
    sends = connection.out.sends
    assert len(sends) == 3, [send[:40] for send in sends]
    for send in sends:
        head, _, payload = send.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(payload)["ok"] is not False


# ------------------------------------------------------ the serve CLI


def test_serve_subprocess_sigterm_drains(snapshot_path, tmp_path):
    """The acceptance slice for graceful shutdown: boot ``repro serve``,
    hit /ready over real HTTP, SIGTERM it, and require a clean exit 0
    with the drain logged."""
    import repro

    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--load", f"g={snapshot_path}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=environment, text=True)
    try:
        banner = process.stdout.readline()
        assert "listening on http://" in banner, banner
        address = banner.rsplit("http://", 1)[1].strip().split()[0]
        host, _, port = address.partition(":")
        deadline = time.monotonic() + 30.0
        while True:
            status, _, _ = _request((host, int(port)), "GET", "/ready")
            if status == 200:
                break
            assert time.monotonic() < deadline, "server never became ready"
            time.sleep(0.1)
        status, _, body = _request((host, int(port)), "POST", "/query",
                                   {"structure": "g", "query": "tc"})
        assert status == 200 and body["ok"]
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=30.0)
        assert process.returncode == 0, stderr
        assert "draining" in stderr and "drained" in stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
