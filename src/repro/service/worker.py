"""The query-service worker process (``python -m repro.service.worker``).

A worker is one OS process holding :class:`Structure`\\ s resident and
answering query frames over its stdin/stdout pipes.  It is deliberately
*stateless across requests* in everything but caches: the server may
kill it at any moment (and chaos tests do, with ``SIGKILL``), respawn
it, and replay an idempotent read elsewhere — so nothing a worker holds
is ever the only copy of anything.

Caching: evaluation goes through one :class:`ModelChecker` per
``(structure, backend, optimize)``.  The checker's memo *is* the
compiled+optimized plan cache — defined relations are keyed by the frozen
formula and the query's layout.  A resident structure never changes
between loads, and a reload under the same name drops that name's
checkers, so no plan outlives the statistics it was optimized against.

Protocol ops (see :mod:`repro.service.protocol` for framing):

=============  =========================================================
``ping``       liveness probe -> ``{ok, pid}``
``load``       ``{name, path}``: make a structure resident (JSON or RSNP
               snapshot, sniffed by magic) -> ``{ok, size}``
``query``      ``{structure, query, backend?, optimize?,
               deadline_seconds?, max_rows?}`` -> ``{ok, columns, rows}``
               / ``{ok, result}`` for sentences / ``{ok: false, error}``
``shutdown``   acknowledge, then exit 0
=============  =========================================================

Every reply carries the request's ``id`` so the supervisor can pair
replies with in-flight requests.  A ``query`` failure is a *typed* error
envelope — ``kind`` is ``input`` / ``resource`` / ``internal``, mirroring
the CLI's exit-code taxonomy — never a crash of the worker itself.  The
one deliberate exception: the ``service.worker.crash`` chaos point
escalates to ``os._exit`` to model the failure the supervisor exists
for.
"""

from __future__ import annotations

import os
import sys
import time

from repro.core.errors import (
    ProtocolError,
    ResourceLimitExceeded,
    SRLError,
)
from repro.core.governor import Budget
from repro.logic.eval import LOGIC_BACKENDS, ModelChecker
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures.structure import Structure, load_structure_file
from repro.testing.chaos import ChaosError, chaos_point, install_policy_from_env

from .protocol import read_frame, write_frame

__all__ = ["Worker", "main"]

#: The exit status of a chaos-injected hard crash (mirrors 128+SIGKILL,
#: what a real ``kill -9`` reports).
CRASH_EXIT = 137


def error_envelope(error: Exception) -> dict:
    """The typed wire form of a query failure (the worker-side analogue
    of the CLI's exit-code taxonomy)."""
    if isinstance(error, ResourceLimitExceeded):
        envelope = {
            "type": type(error).__name__,
            "kind": "resource",
            "message": str(error),
            "resource": error.resource,
            "limit": error.limit,
            "used": error.used,
        }
        stats = getattr(error, "stats", None)
        if stats is not None:
            envelope["partial_stats"] = dict(stats.as_dict())
        return envelope
    from repro.logic.compile import PlanCompilationError

    if isinstance(error, (KeyError, ValueError, PlanCompilationError)) or \
            isinstance(error, SRLError):
        kind = "input" if isinstance(
            error, (KeyError, ValueError, PlanCompilationError)) else "internal"
        return {"type": type(error).__name__, "kind": kind,
                "message": str(error)}
    return {"type": type(error).__name__, "kind": "internal",
            "message": str(error)}


class Worker:
    """The in-process core of a worker: resident structures + checkers.

    Split from the pipe loop so tests can drive it directly (and so the
    server's ``workers=0`` inline mode reuses exactly this evaluation
    path, minus the process boundary).
    """

    def __init__(self) -> None:
        self.structures: dict[str, Structure] = {}
        self._checkers: dict[tuple, ModelChecker] = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.stopped = False
        #: Inline-mode hook: a :class:`CancelToken` the server threads into
        #: the next query's budget (client disconnect -> cancellation).
        #: Meaningless across a process boundary, so the pipe loop never
        #: sets it.
        self.external_cancel = None

    # ------------------------------------------------------------ handlers

    def handle(self, request: dict) -> dict:
        op = request.get("op")
        reply_id = request.get("id")
        try:
            if op == "ping":
                return {"ok": True, "id": reply_id, "op": "ping",
                        "pid": os.getpid(),
                        "structures": sorted(self.structures)}
            if op == "load":
                return self._handle_load(request, reply_id)
            if op == "query":
                return self._handle_query(request, reply_id)
            if op == "shutdown":
                self.stopped = True
                return {"ok": True, "id": reply_id, "op": "shutdown"}
            raise ValueError(f"unknown op {op!r}")
        except ChaosError:
            raise
        except Exception as error:
            return {"ok": False, "id": reply_id,
                    "error": error_envelope(error)}

    def _handle_load(self, request: dict, reply_id) -> dict:
        name = request["name"]
        structure = load_structure_file(request["path"])
        self.structures[name] = structure
        # A reload under the same name invalidates that name's checkers.
        self._checkers = {key: checker
                          for key, checker in self._checkers.items()
                          if key[0] != name}
        return {"ok": True, "id": reply_id, "op": "load", "name": name,
                "size": structure.size}

    def _checker_for(self, name: str, backend: str,
                     optimize: bool) -> ModelChecker:
        structure = self.structures.get(name)
        if structure is None:
            raise KeyError(f"structure {name!r} is not resident; loaded: "
                           f"{sorted(self.structures) or 'none'}")
        key = (name, backend, optimize)
        checker = self._checkers.get(key)
        if checker is None:
            checker = ModelChecker(structure, backend=backend,
                                   optimize=optimize)
            self._checkers[key] = checker
        return checker

    def _handle_query(self, request: dict, reply_id) -> dict:
        started = time.perf_counter()
        # The supervised-crash injection point: a raise here is escalated
        # to process death by the pipe loop (or re-raised to the caller's
        # harness when driven in-process).
        chaos_point("service.worker.crash")
        query = CANONICAL_QUERIES.get(request.get("query"))
        if query is None:
            raise ValueError(
                f"unknown query {request.get('query')!r}; known: "
                f"{', '.join(sorted(CANONICAL_QUERIES))}")
        backend = request.get("backend", "columnar")
        if backend not in LOGIC_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}: expected one of "
                f"{LOGIC_BACKENDS}")
        optimize = bool(request.get("optimize", True))
        checker = self._checker_for(request["structure"], backend, optimize)
        deadline = request.get("deadline_seconds")
        max_rows = request.get("max_rows")
        token = self.external_cancel
        if deadline is not None or max_rows is not None or token is not None:
            checker.budget = Budget(deadline_seconds=deadline,
                                    max_rows_materialized=max_rows,
                                    cancel_token=token)
        else:
            checker.budget = None
        formula = query.formula()
        cached = checker.is_memoized(formula, query.variables)
        if cached:
            self.plan_cache_hits += 1
        else:
            self.plan_cache_misses += 1
        mark = len(checker.degradations)
        _columns, rows = checker.defined_relation(formula, query.variables)
        if query.variables:
            answer = {"columns": list(query.variables),
                      "rows": sorted(map(list, rows))}
        else:
            answer = {"result": () in rows}
        # Stamped once the answer is projected and sorted, so the figure
        # covers everything the worker does before encoding the reply.
        elapsed_ms = round((time.perf_counter() - started) * 1e3, 3)
        return {
            "ok": True,
            "id": reply_id,
            "query": query.name,
            "structure": request["structure"],
            "backend": backend,
            "pid": os.getpid(),
            "cached": cached,
            "elapsed_ms": elapsed_ms,
            "degradations": [
                {"stage": event.stage, "fallback": event.fallback}
                for event in checker.degradations[mark:]],
            "stats": {
                "plan_cache_hits": self.plan_cache_hits,
                "plan_cache_misses": self.plan_cache_misses,
                **checker.plan_stats.as_dict(),
            },
            **answer,
        }


def main(argv: list[str] | None = None) -> int:
    """The pipe loop: frames in on stdin, frames out on stdout, logs on
    stderr.  ``sys.stdout`` is re-pointed at stderr up front so a stray
    ``print`` anywhere in the engine can never corrupt the framing."""
    del argv
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    sys.stdout = sys.stderr
    install_policy_from_env()
    worker = Worker()
    while True:
        try:
            request = read_frame(stdin)
        except ProtocolError as error:
            print(f"worker {os.getpid()}: protocol error on stdin: {error}",
                  file=sys.stderr)
            return 4
        if request is None:  # server hung up: normal shutdown
            return 0
        try:
            reply = worker.handle(request)
        except ChaosError:
            # The injected worker crash: die the way a SIGKILL'd or
            # OOM-killed process dies — no reply, no cleanup, no flush.
            sys.stderr.flush()
            os._exit(CRASH_EXIT)
        try:
            write_frame(stdout, reply)
        except (ProtocolError, OSError) as error:
            print(f"worker {os.getpid()}: cannot reply: {error}",
                  file=sys.stderr)
            return 4
        if worker.stopped:
            return 0


if __name__ == "__main__":
    sys.exit(main())
