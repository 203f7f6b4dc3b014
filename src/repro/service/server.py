"""The query service front end: HTTP/JSON over the supervised pool.

``python -m repro serve --load g=graph.rsnp`` starts a long-lived server
whose endpoints map the engine's typed failure taxonomy onto HTTP:

=======================  ================================================
``POST /query``          evaluate a canonical query on a resident
                         structure; body mirrors the worker request
                         (``structure``, ``query``, ``backend?``,
                         ``optimize?``, ``deadline_seconds?``,
                         ``max_rows?``)
``POST /load``           make another structure resident on every worker
``GET /health``          liveness + full pool/admission/breaker report
``GET /ready``           readiness: 200 only when every worker is alive
                         with the full load set resident (and the server
                         is not draining)
=======================  ================================================

Status mapping (the HTTP face of the CLI's exit-code taxonomy)::

    200  answered (including answers served degraded, flagged in body)
    400  bad input: unknown query/structure/backend, malformed body
    408  client disconnected before the answer (inline mode, cancelled)
    422  resource limit other than time (RowLimitExceeded, ...)
    502  WorkerCrashed: retries exhausted against dying workers
    503  Overloaded (load shed; Retry-After header) or draining
    504  DeadlineExceeded / EvaluationCancelled past the budget
    500  anything internal

Two execution modes share every code path above the dispatch seam:
``workers >= 1`` uses the supervised process pool (:mod:`.pool`);
``workers = 0`` runs a :class:`~repro.service.worker.Worker` inline
under a lock — no crash isolation, but the same caches and the same
typed errors, and the mode where a client disconnect can propagate as a
:class:`~repro.core.governor.CancelToken` into the running evaluation.

Graceful drain: SIGTERM (or SIGINT) flips readiness to 503, lets
in-flight requests finish (bounded), shuts the workers down politely,
then stops the listener.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.errors import Overloaded, WorkerCrashed
from repro.core.governor import CancelToken

from .admission import AdmissionController
from .pool import PoolConfig, WorkerPool

__all__ = ["QueryService", "ServiceConfig", "serve_main"]


def _error(type_name: str, kind: str, message: str, **extra) -> dict:
    """A failure reply body: ``{"ok": false, "error": {type, kind,
    message, ...extra}}``, ``kind`` picking the HTTP status."""
    return {"ok": False, "error": {"type": type_name, "kind": kind,
                                   "message": message, **extra}}


@dataclass(frozen=True)
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 8377
    workers: int = 2
    max_concurrency: int = 4
    max_queue_depth: int = 16
    default_deadline_seconds: float = 30.0
    max_retries: int = 2
    breaker_threshold: int = 2
    drain_timeout_seconds: float = 10.0


class QueryService:
    """The transport-independent core: admission -> dispatch -> typed
    status.  The HTTP handler (and the tests, directly) call
    :meth:`handle_query` and get ``(status, body)`` back."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.admission = AdmissionController(
            max_concurrency=self.config.max_concurrency,
            max_queue_depth=self.config.max_queue_depth)
        self.pool: WorkerPool | None = None
        self._inline = None
        self._inline_lock = threading.Lock()
        self.draining = False
        self.started = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        if self.config.workers >= 1:
            self.pool = WorkerPool(PoolConfig(
                workers=self.config.workers,
                max_retries=self.config.max_retries,
                default_deadline_seconds=self.config.default_deadline_seconds,
                breaker_threshold=self.config.breaker_threshold))
            self.pool.start()
        else:
            from .worker import Worker

            self._inline = Worker()
        self.started = True

    def load(self, name: str, path: str) -> dict:
        if self.pool is not None:
            size = self.pool.load(name, path)
            return {"ok": True, "name": name, "size": size}
        with self._inline_lock:
            reply = self._inline.handle(
                {"op": "load", "name": name, "path": str(path)})
        return reply

    def drain(self) -> None:
        self.draining = True
        if self.pool is not None:
            self.pool.drain(timeout=self.config.drain_timeout_seconds)

    # ----------------------------------------------------------- health

    def ready(self) -> bool:
        if self.draining or not self.started:
            return False
        if self.pool is not None:
            return self.pool.ready()
        return True

    def health(self) -> dict:
        body = {
            "ok": True,
            "mode": "pool" if self.pool is not None else "inline",
            "ready": self.ready(),
            "draining": self.draining,
            "admission": self.admission.snapshot(),
        }
        if self.pool is not None:
            body["pool"] = self.pool.health()
            body["degradations"] = [
                {"stage": event.stage, "fallback": event.fallback,
                 "error": event.error}
                for event in self.pool.degradations()]
        return body

    # ----------------------------------------------------------- dispatch

    def handle_query(self, payload: dict,
                     cancel_token: CancelToken | None = None
                     ) -> tuple[int, dict]:
        """One request through admission + dispatch.  Returns
        ``(http_status, body)``; never raises for request-shaped
        failures."""
        if self.draining:
            return 503, _error("Draining", "overload", "server is draining",
                               retry_after=1.0)
        if not isinstance(payload, dict):
            return 400, _error("ProtocolError", "input",
                               "request body must be a JSON object")
        deadline = payload.get("deadline_seconds",
                               self.config.default_deadline_seconds)
        if deadline is not None and (
                not isinstance(deadline, (int, float)) or deadline < 0):
            return 400, _error("ValueError", "input",
                               f"deadline_seconds must be a non-negative "
                               f"number, got {deadline!r}")
        started = time.monotonic()
        try:
            with self.admission.slot(deadline_seconds=deadline):
                remaining = None if deadline is None else max(
                    0.0, deadline - (time.monotonic() - started))
                return self._dispatch(payload, remaining, cancel_token)
        except Overloaded as error:
            return 503, _error("Overloaded", "overload", str(error),
                               retry_after=error.retry_after)
        except WorkerCrashed as error:
            return 502, _error("WorkerCrashed", "crash", str(error),
                               attempts=error.attempts)
        except Exception as error:  # the 500 backstop: typed, not a hang
            return 500, _error(type(error).__name__, "internal", str(error))

    def _dispatch(self, payload: dict, remaining: float | None,
                  cancel_token: CancelToken | None) -> tuple[int, dict]:
        request = {
            "op": "query",
            "structure": payload.get("structure"),
            "query": payload.get("query"),
            "backend": payload.get("backend", "columnar"),
            "optimize": payload.get("optimize", True),
            "deadline_seconds": remaining,
            "max_rows": payload.get("max_rows"),
        }
        if request["structure"] is None or request["query"] is None:
            return 400, _error("ValueError", "input",
                               "body must name a 'structure' and a 'query'")
        if self.pool is not None:
            reply = self.pool.query(request, deadline_seconds=remaining)
        else:
            reply = self._inline_query(request, remaining, cancel_token)
        return self._status_of(reply), reply

    def _inline_query(self, request: dict, remaining: float | None,
                      cancel_token: CancelToken | None) -> dict:
        del remaining  # already folded into the request's deadline_seconds
        with self._inline_lock:
            # Thread the client's cancel token into the evaluation budget:
            # a disconnect observed by the HTTP handler cancels the token,
            # and the governor raises EvaluationCancelled at its next
            # checkpoint.
            self._inline.external_cancel = cancel_token
            try:
                return self._inline.handle(request)
            finally:
                self._inline.external_cancel = None

    @staticmethod
    def _status_of(reply: dict) -> int:
        if reply.get("ok"):
            return 200
        error = reply.get("error", {})
        kind = error.get("kind")
        if kind == "input":
            return 400
        if kind == "resource":
            if error.get("type") in ("DeadlineExceeded",
                                     "EvaluationCancelled"):
                return 504
            return 422
        if kind == "overload":
            return 503
        if kind == "crash":
            return 502
        return 500


# ------------------------------------------------------------------ HTTP


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    service: QueryService  # installed by _make_server
    # Buffer the reply so headers and body leave in one send.  Unbuffered,
    # they go out in two, and on a keep-alive connection Nagle's algorithm
    # holds the body until the client's delayed ACK (~40 ms per request).
    wbufsize = -1

    # Quiet by default; one access-log line per request on stderr.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        import sys

        print(f"serve: {self.address_string()} {format % args}",
              file=sys.stderr)

    def _send_json(self, status: int, body: dict,
                   retry_after: float | None = None) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, int(retry_after))))
        self.end_headers()
        try:
            self.wfile.write(data)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up: nothing left to tell them

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/health":
            self._send_json(200, self.service.health())
        elif self.path == "/ready":
            if self.service.ready():
                self._send_json(200, {"ok": True, "ready": True})
            else:
                self._send_json(503, {"ok": False, "ready": False,
                                      "draining": self.service.draining},
                                retry_after=1)
        else:
            self._send_json(404, _error("NotFound", "input",
                                        f"no such endpoint: {self.path}"))

    def _read_body(self) -> dict | None:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._send_json(400, _error(
                "ProtocolError", "input",
                f"request body is not valid JSON: {error}"))
            return None
        if not isinstance(body, dict):
            self._send_json(400, _error(
                "ProtocolError", "input", "request body must be a JSON object"))
            return None
        return body

    def _watch_disconnect(self):
        """Inline mode only: watch the connection for EOF while the query
        runs, cancelling the request's token when the client hangs up.
        Returns ``(token, stop)``; pool mode returns ``(None, no-op)`` —
        there, abandonment is bounded by the request deadline instead."""
        if self.service.pool is not None:
            return None, lambda: None
        import select
        import socket

        token = CancelToken()
        stopped = threading.Event()

        def watch():
            while not stopped.is_set():
                try:
                    ready, _, _ = select.select([self.connection], [], [],
                                                0.05)
                    if ready and not self.connection.recv(
                            1, socket.MSG_PEEK):
                        token.cancel()
                        return
                except (OSError, ValueError):
                    return  # connection torn down under us: nothing to do
                stopped.wait(timeout=0.05)

        thread = threading.Thread(target=watch, name="disconnect-watch",
                                  daemon=True)
        thread.start()

        def stop():
            stopped.set()
            thread.join(timeout=1.0)

        return token, stop

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        body = self._read_body()
        if body is None:
            return
        if self.path == "/query":
            token, stop_watch = self._watch_disconnect()
            try:
                status, reply = self.service.handle_query(
                    body, cancel_token=token)
            finally:
                stop_watch()
            if token is not None and token.cancelled and \
                    reply.get("error", {}).get("type") == \
                    "EvaluationCancelled":
                status = 408  # the client hung up; nobody is listening
            retry_after = reply.get("error", {}).get("retry_after") \
                if status == 503 else None
            self._send_json(status, reply, retry_after=retry_after)
        elif self.path == "/load":
            try:
                reply = self.service.load(body["name"], body["path"])
                self._send_json(200 if reply.get("ok") else 400, reply)
            except KeyError as error:
                self._send_json(400, _error(
                    "ValueError", "input", f"load body must carry {error}"))
            except Exception as error:
                self._send_json(500, _error(type(error).__name__,
                                            "internal", str(error)))
        else:
            self._send_json(404, _error("NotFound", "input",
                                        f"no such endpoint: {self.path}"))


def _make_server(service: QueryService, host: str,
                 port: int) -> ThreadingHTTPServer:
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


# ------------------------------------------------------------------- CLI


def serve_main(argv: list[str]) -> int:
    """``python -m repro serve``: parse flags, start the pool, serve until
    SIGTERM/SIGINT, drain gracefully."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="long-lived query server over resident structures")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8377,
                        help="listen port (0 picks a free one)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (0 = inline, no isolation)")
    parser.add_argument("--load", action="append", default=[],
                        metavar="NAME=PATH",
                        help="structure to make resident (repeatable); "
                             "PATH is a JSON database or RSNP snapshot")
    parser.add_argument("--max-concurrency", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--deadline", type=float, default=30.0,
                        help="default per-request deadline (seconds)")
    parser.add_argument("--retries", type=int, default=2,
                        help="replays of a request after worker crashes")
    args = parser.parse_args(argv)

    loads = []
    for spec in args.load:
        name, separator, path = spec.partition("=")
        if not separator or not name or not path:
            print(f"error: --load expects NAME=PATH, got {spec!r}",
                  file=sys.stderr)
            return 2
        loads.append((name, path))

    service = QueryService(ServiceConfig(
        host=args.host, port=args.port, workers=args.workers,
        max_concurrency=args.max_concurrency,
        max_queue_depth=args.queue_depth,
        default_deadline_seconds=args.deadline,
        max_retries=args.retries))
    try:
        service.start()
        for name, path in loads:
            reply = service.load(name, path)
            if not reply.get("ok"):
                print(f"error: cannot load {name}={path}: "
                      f"{reply.get('error', {}).get('message')}",
                      file=sys.stderr)
                return 2
    except Exception as error:
        print(f"error: service start failed: {error}", file=sys.stderr)
        return 2

    server = _make_server(service, args.host, args.port)
    stop = threading.Event()

    def on_signal(signum, frame):
        del frame
        print(f"serve: received signal {signum}, draining", file=sys.stderr)
        stop.set()
        # A second signal restores default handling: the blunt way out.
        signal.signal(signum, signal.SIG_DFL)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, on_signal)

    thread = threading.Thread(target=server.serve_forever,
                              name="serve-listener", daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    print(f"serve: listening on http://{host}:{port} "
          f"({args.workers} worker(s), "
          f"{len(loads)} structure(s) resident)", flush=True)
    try:
        while not stop.is_set():
            stop.wait(timeout=0.2)
    finally:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):
                pass
        service.drain()
        server.shutdown()
        server.server_close()
        thread.join(timeout=2.0)
    print("serve: drained", file=sys.stderr)
    return 0
