"""Experiment P10 — the query service under load and under fire.

Two trajectory datapoints measure the service path (admission ->
supervised worker pool -> framed dispatch -> answer):

* ``service_qps_p50`` — throughput scaling: the same request mix driven
  by 1 client and by 4 concurrent clients; ``speedup`` is the QPS ratio
  (the pool's two workers plus pipelining must make concurrency pay,
  never cost).  The per-level p50 latencies ride along in ``params``.
* ``service_qps_p99`` — tail containment at 4 clients: ``speedup`` is
  ``p50 / p99``, a dimensionless ratio in (0, 1] that *drops* when the
  tail fattens — so the 0.5x trajectory gate catches a tail regression
  the same way it catches a throughput one.

The third test is the availability gate, not a timing: a seeded chaos
schedule SIGKILLs >= 3 workers mid-query-load; every request must
complete with the differentially-verified correct answer or a typed
``WorkerCrashed``, and the pool must return to full readiness.  Zero
wrong answers, smoke mode included.

Results merge into ``BENCH_perf.json`` (or ``BENCH_smoke.json`` under
``--smoke``) alongside the other experiments' entries; the CI perf gate
(``benchmarks/check_trajectory.py``) compares both datapoints against
``benchmarks/BENCH_baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.logic.eval import define_relation
from repro.logic.queries import CANONICAL_QUERIES
from repro.service.server import QueryService, ServiceConfig
from repro.structures import random_alternating_graph, save_snapshot

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS: dict[str, dict] = {}

#: Client levels the load generator drives (the acceptance floor is two).
CLIENT_LEVELS = (1, 4)

#: Mid-load SIGKILL schedule: after these many completed requests, one
#: live worker dies.  Three kills is the acceptance floor.
KILL_AFTER = (5, 13, 21)


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """One structure + its oracle answers, shared by every phase."""
    size = 40
    structure = random_alternating_graph(size, seed=7)
    path = tmp_path_factory.mktemp("bench-service") / "g.snap"
    save_snapshot(structure, path)
    oracle = {}
    for name in ("tc", "apath"):
        query = CANONICAL_QUERIES[name]
        rows = define_relation(query.formula(), structure, query.variables,
                               backend="tuple")
        oracle[name] = sorted(list(row) for row in rows)
    return {"path": path, "oracle": oracle, "size": size}


def _start_service(workload, **overrides) -> QueryService:
    config = dict(workers=2, max_concurrency=8, max_queue_depth=64,
                  default_deadline_seconds=60.0)
    config.update(overrides)
    service = QueryService(ServiceConfig(**config))
    service.start()
    reply = service.load("g", str(workload["path"]))
    assert reply.get("ok"), reply
    return service


def _drive(service, workload, requests: int, clients: int,
           on_complete=None) -> dict:
    """The load generator: ``requests`` canonical queries from
    ``clients`` concurrent threads.  Every 200 is differentially
    verified against the tuple oracle; returns latencies + wall time +
    the outcome census."""
    names = ("tc", "apath")
    latencies: list[float] = []
    outcomes = {"ok": 0, "crashed": 0}
    completed = 0
    lock = threading.Lock()

    def one(index: int):
        nonlocal completed
        name = names[index % len(names)]
        started = time.perf_counter()
        status, reply = service.handle_query({"structure": "g",
                                              "query": name})
        elapsed = time.perf_counter() - started
        if status == 200:
            assert reply["rows"] == workload["oracle"][name], \
                f"wrong answer for {name} under load"
            outcome = "ok"
        else:
            assert status == 502, f"unexpected status {status}: {reply}"
            outcome = "crashed"
        with lock:
            latencies.append(elapsed)
            outcomes[outcome] += 1
            completed += 1
            tick = completed
        if on_complete is not None:
            on_complete(tick)
        return status

    wall_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as executor:
        list(executor.map(one, range(requests)))
    wall = time.perf_counter() - wall_start
    return {"latencies": latencies, "wall": wall, "outcomes": outcomes,
            "qps": requests / wall}


# ------------------------------------------------------------ trajectory


def test_service_throughput_and_tail(workload, table, smoke):
    requests = 24 if smoke else 96
    service = _start_service(workload)
    try:
        # Warm every worker's plan cache so the measured phases time the
        # steady state, not compilation.
        for _ in range(4):
            _drive(service, workload, requests=4, clients=2)
        by_level = {clients: _drive(service, workload, requests, clients)
                    for clients in CLIENT_LEVELS}
    finally:
        service.drain()

    low, high = CLIENT_LEVELS
    p50 = {c: _percentile(run["latencies"], 0.50)
           for c, run in by_level.items()}
    p99 = {c: _percentile(run["latencies"], 0.99)
           for c, run in by_level.items()}
    scaling = by_level[high]["qps"] / by_level[low]["qps"]
    containment = p50[high] / p99[high]

    RESULTS["service_qps_p50"] = {
        "seed_seconds": round(1.0 / by_level[low]["qps"], 6),
        "optimized_seconds": round(1.0 / by_level[high]["qps"], 6),
        "speedup": round(scaling, 2),
        "params": {
            "clients": list(CLIENT_LEVELS), "requests": requests,
            "workers": 2, "baseline": f"{low} client",
            "qps": {str(c): round(run["qps"], 1)
                    for c, run in by_level.items()},
            "p50_ms": {str(c): round(p50[c] * 1e3, 3) for c in by_level},
        },
    }
    RESULTS["service_qps_p99"] = {
        "seed_seconds": round(p50[high], 6),
        "optimized_seconds": round(p99[high], 6),
        "speedup": round(containment, 3),
        "params": {
            "clients": high, "requests": requests, "workers": 2,
            "baseline": "p99 vs p50 tail containment",
            "p50_ms": round(p50[high] * 1e3, 3),
            "p99_ms": round(p99[high] * 1e3, 3),
        },
    }
    table("P10: service load (2 workers)",
          ["clients", "qps", "p50 ms", "p99 ms"],
          [[c, f"{run['qps']:.1f}", f"{p50[c] * 1e3:.2f}",
            f"{p99[c] * 1e3:.2f}"] for c, run in by_level.items()])
    assert all(run["outcomes"]["crashed"] == 0
               for run in by_level.values()), "no chaos was armed"
    if not smoke:
        # Concurrency must at least not *cost* throughput; the real bar
        # is the trajectory gate against the committed baseline.
        assert scaling >= 0.6, by_level
        assert containment > 0.0


# -------------------------------------------------------- availability


def test_chaos_schedule_availability_gate(workload, table, smoke):
    """SIGKILL >= 3 workers mid-load: correct-or-typed on every request,
    then full readiness again.  This is the P10 acceptance gate."""
    requests = 32 if smoke else 64
    service = _start_service(workload, max_retries=2)
    pool = service.pool
    kills = []

    def killer(tick: int) -> None:
        if len(kills) >= len(KILL_AFTER) or tick != KILL_AFTER[len(kills)]:
            return
        victims = [handle for handle in pool._workers
                   if handle.proc is not None and handle.proc.poll() is None]
        if not victims:
            return
        victim = victims[len(kills) % len(victims)]
        try:
            os.kill(victim.proc.pid, signal.SIGKILL)
            kills.append(victim.proc.pid)
        except (ProcessLookupError, AttributeError):
            pass

    try:
        _drive(service, workload, requests=4, clients=2)  # warm the pool
        run = _drive(service, workload, requests, clients=4,
                     on_complete=killer)
        assert len(kills) >= 3, f"schedule only killed {len(kills)} workers"
        assert run["outcomes"]["ok"] + run["outcomes"]["crashed"] == requests
        assert run["outcomes"]["ok"] > 0, "chaos starved every request"
        assert pool.stats["worker_deaths"] >= 3

        deadline = time.monotonic() + 30.0
        while not pool.ready() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.ready(), pool.health()
        status, reply = service.handle_query({"structure": "g",
                                              "query": "tc"})
        assert status == 200
        assert reply["rows"] == workload["oracle"]["tc"]
    finally:
        service.drain()
    table("P10: chaos availability (SIGKILL x3 mid-load)",
          ["requests", "ok", "typed 502", "worker deaths", "ready again"],
          [[requests, run["outcomes"]["ok"], run["outcomes"]["crashed"],
            pool.stats["worker_deaths"], True]])


# --------------------------------------------------------------- output


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json(request):
    """Merge the service datapoints into the trajectory file.  Both modes
    *merge* (read-update-write): the smoke file is shared with the other
    benchmark modules inside one CI run, and the vetted ``BENCH_perf``
    entries for other workloads must survive a partial run."""
    yield
    if not RESULTS:
        return
    smoke = bool(request.config.getoption("--smoke"))
    path = REPO_ROOT / ("BENCH_smoke.json" if smoke else "BENCH_perf.json")
    payload = {
        "schema": "repro-perf-trajectory/v1",
        "experiment": "P10 query service"
                      + (" (smoke sizes)" if smoke else ""),
        "python": platform.python_version(),
        "entries": {},
    }
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            payload["entries"] = existing.get("entries", {})
            # Keep the richer header of a combined run.
            for key, value in existing.items():
                if key not in ("entries", "experiment"):
                    payload.setdefault(key, value)
            # Name the service once, however many runs merge here.
            experiment = existing.get("experiment")
            if experiment:
                if "P10 query service" not in experiment:
                    experiment += " + P10 query service"
                payload["experiment"] = experiment
        except (ValueError, OSError):
            pass
    payload["entries"].update(RESULTS)
    path.write_text(json.dumps(payload, indent=2) + "\n")
