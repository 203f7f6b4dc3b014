"""The query service layer (P10): a long-lived server over the engine.

``repro.service`` turns the batch model checker into a serving system
(ROADMAP item 2) with robustness as the headline: structures stay
resident in a pool of supervised worker *processes*, compiled+optimized
plans and their relations are cached per resident structure (dropped on
reload), and every cross-process
failure mode — a worker dying mid-query, a full queue, a blown deadline,
a torn protocol frame — resolves to the correct answer or a typed error,
never a hang and never a wrong answer.

Layering (each module is independently testable):

``protocol``   length-prefixed JSON frames + the request/response shapes
``worker``     the worker process: resident structures, plan cache,
               governed evaluation (``python -m repro.service.worker``)
``pool``       supervision: spawn/respawn with exponential backoff,
               crash detection (pipe EOF / deadline grace), bounded
               retry of in-flight requests, per-structure circuit
               breaker (columnar -> plan after repeated deaths)
``admission``  bounded queue depth + load shedding (``Overloaded``)
``server``     the HTTP/JSON front end: ``POST /query``, ``GET
               /health``, ``GET /ready``, graceful drain on SIGTERM

The CLI entry point is ``python -m repro serve`` (see ``server.main``).
"""

from .admission import AdmissionController
from .pool import WorkerPool
from .protocol import read_frame, write_frame
from .server import QueryService

__all__ = ["AdmissionController", "QueryService", "WorkerPool",
           "read_frame", "write_frame"]
