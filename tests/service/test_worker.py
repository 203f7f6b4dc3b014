"""Worker-core tests: the in-process :class:`Worker` behind both the
pipe loop and the server's inline mode.

The contract: every request gets a reply carrying its ``id``; failures
are *typed* envelopes (``kind`` ∈ input/resource/internal) mirroring the
CLI exit-code taxonomy; plans are cached per resident structure and
invalidated when a structure is reloaded.
"""

from __future__ import annotations

import pytest

from repro.core.governor import CancelToken
from repro.service.worker import Worker, error_envelope
from repro.structures import graph_structure

pytestmark = pytest.mark.usefixtures("snapshot_path")


@pytest.fixture
def worker(snapshot_path):
    worker = Worker()
    reply = worker.handle({"op": "load", "id": 1, "name": "g",
                           "path": str(snapshot_path)})
    assert reply["ok"], reply
    return worker


# ------------------------------------------------------------------ ops


def test_ping(worker):
    reply = worker.handle({"op": "ping", "id": 41})
    assert reply["ok"] and reply["id"] == 41
    assert reply["structures"] == ["g"]


def test_unknown_op_is_a_typed_input_error(worker):
    reply = worker.handle({"op": "frobnicate", "id": 2})
    assert not reply["ok"] and reply["id"] == 2
    assert reply["error"]["kind"] == "input"
    assert "frobnicate" in reply["error"]["message"]


def test_shutdown_sets_the_stop_flag(worker):
    assert worker.handle({"op": "shutdown", "id": 3})["ok"]
    assert worker.stopped


def test_load_json_database(json_path):
    worker = Worker()
    reply = worker.handle({"op": "load", "name": "j", "path": str(json_path)})
    assert reply["ok"] and reply["size"] >= 6


# ---------------------------------------------------------------- queries


@pytest.mark.parametrize("backend", ["tuple", "plan", "columnar"])
def test_query_matches_the_oracle(worker, oracle, backend):
    for name in ("tc", "apath"):
        reply = worker.handle({"op": "query", "structure": "g",
                               "query": name, "backend": backend})
        assert reply["ok"], reply
        assert reply["rows"] == oracle(name)
        assert reply["backend"] == backend


def test_second_query_hits_the_plan_cache(worker):
    first = worker.handle({"op": "query", "structure": "g", "query": "tc"})
    second = worker.handle({"op": "query", "structure": "g", "query": "tc"})
    assert not first["cached"] and second["cached"]
    assert first["rows"] == second["rows"]
    assert second["stats"]["plan_cache_hits"] == 1


def test_elapsed_ms_includes_sorting_the_rows(worker, monkeypatch):
    # A controlled clock that only moves while the worker sorts: every
    # sort it runs, the reply's rows included, must land in elapsed_ms.
    from types import SimpleNamespace

    from repro.service import worker as worker_module

    now = [100.0]
    sorts = []

    def slow_sorted(items):
        now[0] += 1.0
        sorts.append(now[0])
        return sorted(items)

    monkeypatch.setattr(worker_module, "time",
                        SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(worker_module, "sorted", slow_sorted, raising=False)
    reply = worker.handle({"op": "query", "structure": "g", "query": "tc"})
    assert reply["ok"], reply
    assert sorts and reply["elapsed_ms"] == 1000.0 * len(sorts)


def test_unknown_query_is_input(worker):
    reply = worker.handle({"op": "query", "structure": "g", "query": "nope"})
    assert reply["error"]["kind"] == "input"
    assert "nope" in reply["error"]["message"]


def test_unknown_structure_is_input(worker):
    reply = worker.handle({"op": "query", "structure": "missing",
                           "query": "tc"})
    assert reply["error"]["kind"] == "input"
    assert "missing" in reply["error"]["message"]


def test_unknown_backend_is_input(worker):
    reply = worker.handle({"op": "query", "structure": "g", "query": "tc",
                           "backend": "gpu"})
    assert reply["error"]["kind"] == "input"


def test_zero_deadline_is_a_typed_resource_error(worker):
    reply = worker.handle({"op": "query", "structure": "g", "query": "tc",
                           "deadline_seconds": 0.0})
    assert reply["error"]["kind"] == "resource"
    assert reply["error"]["type"] == "DeadlineExceeded"
    assert "partial_stats" in reply["error"]


def test_row_limit_is_a_typed_resource_error(worker):
    reply = worker.handle({"op": "query", "structure": "g", "query": "tc",
                           "max_rows": 1})
    assert reply["error"]["kind"] == "resource"
    assert reply["error"]["type"] == "RowLimitExceeded"
    assert reply["error"]["limit"] == 1


def test_external_cancel_token_reaches_the_budget(worker):
    token = CancelToken()
    token.cancel()
    worker.external_cancel = token
    reply = worker.handle({"op": "query", "structure": "g", "query": "tc",
                           "deadline_seconds": 30.0})
    worker.external_cancel = None
    assert reply["error"]["type"] == "EvaluationCancelled"


# ----------------------------------------------------- cache invalidation


def test_reload_invalidates_the_plan_cache(worker, snapshot_path):
    worker.handle({"op": "query", "structure": "g", "query": "tc"})
    worker.handle({"op": "load", "name": "g", "path": str(snapshot_path)})
    reply = worker.handle({"op": "query", "structure": "g", "query": "tc"})
    assert not reply["cached"], "reload must drop the old structure's plans"


def test_stale_checkers_are_evicted_not_leaked(worker, tmp_path):
    """A reloaded structure gets a fresh checker and the stale one (plans
    optimized against dead statistics) is dropped."""
    from repro.structures import save_snapshot

    worker.handle({"op": "query", "structure": "g", "query": "tc"})
    assert len(worker._checkers) == 1
    grown = tmp_path / "grown.snap"
    save_snapshot(graph_structure(8, [(i, i + 1) for i in range(7)]), grown)
    worker.handle({"op": "load", "name": "g", "path": str(grown)})
    worker.handle({"op": "query", "structure": "g", "query": "tc"})
    keys = [key for key in worker._checkers if key[0] == "g"]
    assert len(keys) == 1, "the reloaded name's checker must be evicted"


# ----------------------------------------------------------- envelopes


def test_error_envelope_shapes():
    assert error_envelope(KeyError("x"))["kind"] == "input"
    assert error_envelope(ValueError("x"))["kind"] == "input"
    assert error_envelope(RuntimeError("x"))["kind"] == "internal"
    from repro.core.errors import ResourceLimitExceeded

    envelope = error_envelope(ResourceLimitExceeded("rows", 10, 11))
    assert envelope["kind"] == "resource"
    assert (envelope["resource"], envelope["limit"], envelope["used"]) == \
        ("rows", 10, 11)
