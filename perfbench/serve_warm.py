"""``serve-warm``: ``python -m repro serve --workers 2`` over resident
snapshots, driven over HTTP by two closed-loop clients.

After warm-up every (structure, query) pair is in each worker's memo
(replies say ``cached: true``), so an operation's time goes to HTTP,
admission, the pool's pipe framing and reply encoding; the kernels do
almost no work.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from harness import (
    TRACE_METRICS,
    Outcome,
    Recorder,
    Window,
    dump_spans,
    durations_ms,
    load_spans,
    mean,
    measure,
    out_dir,
    overhead_metrics,
    paced_layers,
    peak_rss_mb,
    profile_ops,
    repeated_setup,
    self_time_table,
    unattributed_share,
    window_metrics,
)
from oracle import digest, reference, reply_digest

HERE = Path(__file__).resolve().parent

FULL = {"n": 96, "layers": 8, "width": 12}
TINY = {"n": 12, "layers": 3, "width": 4}
CLIENTS = 2
WORKERS = 2
#: Tail percentile per latency class: the highest with at least 10
#: samples beyond it in a 25-second window.
TAILS = {"op": 0.995, "rel": 0.99, "bool": 0.99}
SETUP_REPETITIONS = 3
BOOT_TIMEOUT = 60.0
#: Operations replayed through the inline worker probe.
PROBE_OPS = 400

LAYER_METRICS = (
    "service.http.self_ms", "service.http.reply_bytes",
    "service.handle_query.self_ms", "service.admission.wait_ms",
    "service.pool.query_ms", "service.protocol.encode_ms",
    "service.protocol.frame_bytes", "service.worker.handle_ms",
    "service.worker.plan_cache_hit_ratio", "service.pool.retries",
    "service.pool.worker_deaths", "structures.snapshot.save_ms",
    "structures.snapshot.load_ms", "structures.snapshot.bytes",
) + TRACE_METRICS


@dataclass(frozen=True)
class Op:
    structure: str
    query: str
    kinds: tuple[str, ...]

    def __repr__(self) -> str:
        return f"{self.query}@{self.structure}"


def _structures(seed: int, sizes: dict) -> dict:
    from repro.structures.graphs import random_alternating_graph
    from repro.structures.zoo import layered_dag, sparse_graph

    n = sizes["n"]
    return {
        "alternating": random_alternating_graph(
            n, 0.05 if n > 32 else 0.2, seed=seed),
        "sparse": sparse_graph(n, 3, seed + 1),
        "layered": layered_dag(sizes["layers"], sizes["width"], 2, seed + 2),
    }


def _pairs(structures: dict) -> list[tuple[str, str]]:
    from repro.logic.queries import CANONICAL_QUERIES

    return [(name, query) for name, structure in structures.items()
            for query in CANONICAL_QUERIES
            if query not in ("apath", "agap") or "A" in structure.relations]


def _schedule(pairs, seed: int):
    from repro.logic.queries import CANONICAL_QUERIES

    rng = random.Random(seed)
    ops = [Op(structure, query,
              ("op", "rel" if CANONICAL_QUERIES[query].variables else "bool"))
           for structure, query in pairs]
    while True:
        cycle = ops[:]
        rng.shuffle(cycle)
        yield from cycle


class Server:
    """One ``repro serve`` subprocess.  Its output goes to files, never to
    an unread pipe: a full stderr pipe (one access-log line per request)
    would stall every handler and the drain."""

    def __init__(self, command: list[str], tag: str) -> None:
        directory = out_dir()
        self.stdout_path = directory / f"server-{tag}.out"
        self.stderr_path = directory / f"server-{tag}.err"
        with open(self.stdout_path, "wb") as stdout, \
                open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(command, stdout=stdout,
                                         stderr=stderr,
                                         stdin=subprocess.DEVNULL)
        self.port = None

    def wait_ready(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while self.port is None:
            text = self.stdout_path.read_text()
            marker = "listening on http://"
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                break
            self._check_alive(deadline)
            time.sleep(0.01)
        while True:
            status, _ = self.get("/ready")
            if status == 200:
                return
            self._check_alive(deadline)
            time.sleep(0.01)

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"server exited with {self.proc.returncode}: "
                               f"{self.stderr_path.read_text()[-2000:]}")
        if time.monotonic() > deadline:
            raise RuntimeError("server did not become ready in time")

    def get(self, path: str) -> tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def pids(self) -> tuple[int, ...]:
        _, health = self.get("/health")
        workers = health.get("pool", {}).get("workers", [])
        return (self.proc.pid,) + tuple(
            worker["pid"] for worker in workers if worker.get("pid"))

    def pool_stats(self) -> dict:
        _, health = self.get("/health")
        return health.get("pool", {}).get("stats", {})

    def stop(self) -> str | None:
        """SIGTERM, then wait for the drain.  Returns a problem report, or
        ``None`` when the server exited 0 after ``serve: drained``."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return "server did not drain within 30 s after SIGTERM"
        if self.proc.returncode != 0:
            return f"server exited with {self.proc.returncode} after SIGTERM"
        if "serve: drained" not in self.stderr_path.read_text():
            return "server exited without reporting 'serve: drained'"
        return None

    def kill(self) -> None:
        """Stop the server on an error path: SIGTERM, then SIGKILL.  Its
        workers exit on their own when the server's pipes close."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


def _serve_args(snapshots: dict) -> list[str]:
    args = ["serve", "--port", "0", "--workers", str(WORKERS)]
    for name, path in snapshots.items():
        args += ["--load", f"{name}={path}"]
    return args


def _boot(snapshots: dict, tag: str, spans_file: Path | None = None) -> Server:
    if spans_file is None:
        command = [sys.executable, "-m", "repro"] + _serve_args(snapshots)
    else:
        command = [sys.executable, str(HERE / "serve_traced.py"),
                   str(spans_file), *_serve_args(snapshots)[1:]]
    server = Server(command, tag)
    try:
        server.wait_ready()
    except BaseException:
        server.kill()
        raise
    return server


def _query(port: int, op: Op, trace_op: str | None = None
           ) -> tuple[int, bytes]:
    """One request on a fresh connection, as ``curl`` or ``urllib`` send
    it.  (A keep-alive connection stalls ~40 ms per request: the server
    writes headers and body in two sends, and Nagle's algorithm holds the
    body until the client's delayed ACK.)"""
    payload = {"structure": op.structure, "query": op.query}
    if trace_op is not None:
        payload["trace_op"] = trace_op
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request("POST", "/query", json.dumps(payload),
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _warm(server: Server, pairs) -> list[str]:
    """Send every pair from ``CLIENTS`` concurrent connections until a full
    round comes back ``cached`` (so both workers hold every answer)."""
    ops = [Op(s, q, ()) for s, q in pairs]
    for _ in range(10):
        uncached = []

        def client():
            for op in ops:
                status, data = _query(server.port, op)
                if status != 200 or not json.loads(data).get("cached"):
                    uncached.append(op)

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if not uncached:
            return []
    return [f"warning: {len(uncached)} replies still uncached after warm-up"]


def _drive(server: Server, pairs, seed: int, seconds: float, expected: dict,
           recorder: Recorder | None = None) -> tuple[Window, dict]:
    """``CLIENTS`` closed-loop clients for ``seconds``; returns the window
    and reply facts (bytes, cache flags) of the answered ops."""
    facts = {"reply_bytes": [], "cached": 0, "answered": 0}
    lock = threading.Lock()

    def execute(op: Op):
        trace_op = recorder.current_op() if recorder is not None else None
        status, data = _query(server.port, op, trace_op)
        if status != 200:
            raise RuntimeError(f"HTTP {status}: {data[:200]!r}")
        return data

    def check(op: Op, data: bytes) -> bool:
        reply = json.loads(data)
        with lock:
            facts["reply_bytes"].append(len(data))
            facts["answered"] += 1
            facts["cached"] += bool(reply.get("cached"))
        return reply.get("ok") and \
            reply_digest(reply) == expected[(op.structure, op.query)]

    streams = [_schedule(pairs, seed * 31 + index) for index in range(CLIENTS)]
    window = measure(streams, seconds, execute, check, recorder=recorder,
                     root_name=lambda op: "serve.http", prefix="c")
    return window, facts


def run(seed: int, seconds: float, trace: bool, sizes: dict = FULL,
        corrupt: int = 0) -> Outcome:
    from repro.structures import load_structure, save_snapshot

    directory = out_dir() / "serve"
    directory.mkdir(parents=True, exist_ok=True)
    snapshot_times = {"save": [], "load": [], "bytes": []}
    servers: list[Server] = []

    def build():
        for server in servers:
            problem = server.stop()
            if problem:
                raise RuntimeError(problem)
        servers.clear()
        structures = _structures(seed, sizes)
        snapshots = {}
        for name, structure in structures.items():
            path = directory / f"{name}.rsnp"
            started = time.perf_counter()
            save_snapshot(structure, path)
            saved = time.perf_counter()
            load_structure(path)
            loaded = time.perf_counter()
            snapshot_times["save"].append((saved - started) * 1e3)
            snapshot_times["load"].append((loaded - saved) * 1e3)
            snapshot_times["bytes"].append(path.stat().st_size)
            snapshots[name] = path
        servers.append(_boot(snapshots, "plain"))
        return structures, snapshots

    try:
        setup_s, (structures, snapshots), setup_times = repeated_setup(
            build, SETUP_REPETITIONS)
        pairs = _pairs(structures)
        expected = {}
        for name, structure in structures.items():
            names = [query for s, query in pairs if s == name]
            for query, answer in reference(structure, names).items():
                expected[(name, query)] = digest(answer)
        for key in pairs[:corrupt]:
            expected[key] = None

        server = servers[0]
        lines = [f"set-up: {', '.join(f'{t:.3f}' for t in setup_times)} s "
                 f"(median {setup_s:.3f} s)",
                 "structures: " + ", ".join(
                     f"{name} n={s.size} |E|={len(s.relations['E'])}"
                     for name, s in structures.items()),
                 f"pairs: {len(pairs)}, clients: {CLIENTS}, "
                 f"workers: {WORKERS}"]
        lines += _warm(server, pairs)
        window, _facts = _drive(server, pairs, seed, seconds, expected)
        pids = server.pids()
        rss = peak_rss_mb(pids)
        stats = server.pool_stats()
        problem = server.stop()
        servers.clear()
    except BaseException:
        for server in servers:
            server.kill()
        raise

    metrics = {"setup_s": setup_s, "peak_rss_mb": rss}
    metrics.update(window_metrics(window, TAILS, lines))
    lines += window.notes
    attempted, failed, wrong = window.attempted, window.failed, window.wrong
    if problem:
        lines.append(f"error: {problem}")
        failed += 1
        wrong += 1
    if not trace:
        return Outcome(attempted, failed, wrong, metrics, lines)

    spans_file = out_dir() / "spans-serve-server.jsonl"
    recorder = Recorder(prefix="c")
    server = _boot(snapshots, "traced", spans_file)
    try:
        lines += _warm(server, pairs)
        traced, facts = _drive(server, pairs, seed, seconds, expected,
                               recorder)
        traced_stats = server.pool_stats()
        problem = server.stop()
    except BaseException:
        server.kill()
        raise
    if problem:
        lines.append(f"error: {problem}")
        failed += 1
        wrong += 1
    attempted += traced.attempted
    failed += traced.failed
    wrong += traced.wrong
    traced_metrics = window_metrics(traced, TAILS, [])

    spans = recorder.spans + load_spans(spans_file)
    profiles = profile_ops(spans, {"serve.http"})
    probe, frame_bytes = _probe_worker(snapshots, pairs, seed)
    count = max(1, len(profiles))
    layer = {
        "service.http.self_ms":
            sum(p.self_ms.get("serve.http", 0.0) for p in profiles) / count,
        "service.http.reply_bytes": mean(facts["reply_bytes"]),
        "service.handle_query.self_ms": sum(
            p.self_ms.get("service.handle_query", 0.0)
            for p in profiles) / count,
        "service.admission.wait_ms":
            sum(durations_ms(spans, "service.admission.wait")) / count,
        "service.pool.query_ms":
            sum(durations_ms(spans, "service.pool.query")) / count,
        "service.protocol.encode_ms":
            mean(durations_ms(probe.spans, "service.protocol.encode")),
        "service.protocol.frame_bytes": mean(frame_bytes),
        "service.worker.handle_ms":
            mean(durations_ms(probe.spans, "service.worker.handle")),
        "service.worker.plan_cache_hit_ratio":
            facts["cached"] / max(1, facts["answered"]),
        "service.pool.retries":
            stats.get("retries", 0) + traced_stats.get("retries", 0),
        "service.pool.worker_deaths": stats.get("worker_deaths", 0)
            + traced_stats.get("worker_deaths", 0),
        "structures.snapshot.save_ms": mean(snapshot_times["save"]),
        "structures.snapshot.load_ms": mean(snapshot_times["load"]),
        "structures.snapshot.bytes": mean(snapshot_times["bytes"]),
        "trace.unattributed_share": unattributed_share(profiles),
    }
    layer = paced_layers(layer, traced)
    layer.update(overhead_metrics(metrics, traced_metrics))
    dump_spans(spans, out_dir() / f"spans-serve-warm-{seed}.jsonl")
    lines += ["self time per layer (traced window):"]
    lines += self_time_table(profiles)
    return Outcome(attempted, failed, wrong, layer, lines)


def _probe_worker(snapshots: dict, pairs, seed: int
                  ) -> tuple[Recorder, list[int]]:
    """Replay the traced mix through an inline ``Worker`` (the same
    evaluation path as a worker process, minus the pipes): time
    ``Worker.handle`` with a warm memo, and ``encode_frame`` on its reply.
    Returns the spans and the frame sizes."""
    from repro.service.protocol import encode_frame
    from repro.service.worker import Worker

    worker = Worker()
    for name, path in snapshots.items():
        worker.handle({"op": "load", "name": name, "path": str(path)})
    for structure, query in pairs:
        worker.handle({"op": "query", "structure": structure, "query": query})
    probe = Recorder(prefix="w")
    frame_bytes = []
    schedule = _schedule(pairs, seed * 31)
    for index in range(PROBE_OPS):
        op = next(schedule)
        request = {"op": "query", "structure": op.structure,
                   "query": op.query, "id": index}
        with probe.span("service.worker.handle", op=f"w{index}"):
            reply = worker.handle(request)
        with probe.span("service.protocol.encode", op=f"w{index}"):
            frame = encode_frame(reply)
        frame_bytes.append(len(frame))
    return probe, frame_bytes
