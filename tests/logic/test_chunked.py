"""The chunked (big-n) columnar interpreter: the four-way differential,
budget enforcement, and the degradation contract (P9 acceptance).

The dense per-plan code generator only runs below
``DENSE_WIDTH_THRESHOLD``; these tests monkeypatch the threshold the
``codegen`` module captured down to 2, so ordinary small structures —
including snapshot-loaded ones with packed mmap relations — exercise the
chunked interpreter while staying cheap enough to compare against the
plan backend and the tuple oracle on every query.
"""

from __future__ import annotations

import pytest

from repro.core.errors import MemoryLimitExceeded, ResourceLimitExceeded
from repro.core.governor import Budget
from repro.logic import codegen
from repro.logic.chunked import ChunkedUnsupported, execute_chunked
from repro.logic.eval import ModelChecker, define_relation
from repro.logic.plan import DomainProduct, PlanStats
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures import load_structure, save_snapshot
from repro.structures.graphs import random_graph
from repro.structures.zoo import clustered_graph, grid_graph, layered_dag

#: Queries whose chunked evaluation needs no Domain**2 materialization —
#: the production big-n set the interpreter must cover natively.
COVERED = ("tc", "dtc", "reach", "dreach", "count-reach", "half-out", "gap")


@pytest.fixture
def chunk_everything(monkeypatch):
    """Route every columnar execution through the chunked interpreter
    (codegen imported the threshold by value, so patch its copy)."""
    monkeypatch.setattr(codegen, "DENSE_WIDTH_THRESHOLD", 2)


def _relation(query, structure, backend, **kwargs):
    return define_relation(query.formula(), structure, query.variables,
                           backend=backend, **kwargs)


# ------------------------------------------------------------ differential


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", COVERED)
def test_four_way_differential(chunk_everything, tmp_path, name, seed):
    """columnar(chunked) == optimized plan == raw plan == tuple oracle,
    evaluated over a snapshot round-tripped structure."""
    query = CANONICAL_QUERIES[name]
    original = random_graph(7, edge_probability=0.3, seed=seed)
    save_snapshot(original, tmp_path / "g.snap")
    structure = load_structure(tmp_path / "g.snap")
    degradations: list = []
    chunked = _relation(query, structure, "columnar",
                        degradations=degradations)
    assert degradations == [], f"{name} degraded off the chunked path"
    assert chunked == _relation(query, structure, "plan")
    assert chunked == _relation(query, original, "plan", optimize=False)
    assert chunked == _relation(query, original, "tuple")


@pytest.mark.parametrize("make", [
    lambda: grid_graph(5, 5),
    lambda: layered_dag(4, 5, seed=3),
    lambda: clustered_graph(3, cluster_size=6, intra=12, seed=1),
])
def test_zoo_families_differential(chunk_everything, make):
    structure = make()
    for name in ("tc", "reach", "count-reach"):
        query = CANONICAL_QUERIES[name]
        assert _relation(query, structure, "columnar") \
            == _relation(query, structure, "tuple")


def test_chunked_backend_reported(chunk_everything):
    query = CANONICAL_QUERIES["tc"]
    structure = random_graph(6, seed=2)
    checker = ModelChecker(structure, backend="columnar")
    checker.defined_relation(query.formula())
    report = checker.plan_stats.columnar_report
    assert report is not None
    assert report["backend"] == "chunked"
    assert report["tuple_fallbacks"] == []


# ------------------------------------------------------- budgets and stats


def test_bytes_resident_budget_bites(chunk_everything):
    query = CANONICAL_QUERIES["tc"]
    structure = clustered_graph(4, cluster_size=8, intra=20, seed=0)
    stats = PlanStats()
    with pytest.raises(MemoryLimitExceeded) as info:
        _relation(query, structure, "columnar", stats=stats,
                  budget=Budget(max_bytes_resident=64))
    assert isinstance(info.value, ResourceLimitExceeded)
    assert stats.bytes_resident > 64


def test_rows_budget_still_enforced(chunk_everything):
    query = CANONICAL_QUERIES["tc"]
    structure = clustered_graph(4, cluster_size=8, intra=20, seed=0)
    with pytest.raises(ResourceLimitExceeded):
        _relation(query, structure, "columnar",
                  budget=Budget(max_rows_materialized=3))


def test_chunked_notes_resident_bytes(chunk_everything):
    query = CANONICAL_QUERIES["tc"]
    structure = random_graph(8, edge_probability=0.4, seed=5)
    stats = PlanStats()
    _relation(query, structure, "columnar", stats=stats)
    assert stats.bytes_resident > 0
    assert stats.as_dict()["bytes_resident"] == stats.bytes_resident


# ------------------------------------------------------------- degradation


def test_unsupported_shapes_raise_chunked_unsupported():
    structure = random_graph(5, seed=1)
    with pytest.raises(ChunkedUnsupported):
        execute_chunked(DomainProduct(("x", "y")), structure)


def test_unsupported_shapes_degrade_to_the_plan_backend(chunk_everything):
    """non-reach compiles to a universe**2 complement: chunked refuses,
    the ladder records the degradation, and the answer stays exact."""
    query = CANONICAL_QUERIES["non-reach"]
    structure = random_graph(6, edge_probability=0.3, seed=4)
    degradations: list = []
    result = _relation(query, structure, "columnar", optimize=False,
                       degradations=degradations)
    assert result == _relation(query, structure, "tuple")
    assert any(event.stage == "columnar" and event.fallback == "plan"
               for event in degradations)


def test_resource_errors_never_degrade(chunk_everything):
    query = CANONICAL_QUERIES["tc"]
    structure = clustered_graph(4, cluster_size=8, intra=20, seed=0)
    degradations: list = []
    with pytest.raises(ResourceLimitExceeded):
        _relation(query, structure, "columnar",
                  budget=Budget(max_bytes_resident=64),
                  degradations=degradations)
    assert not any(event.stage == "columnar" for event in degradations)


# --------------------------------------------------------- the universe cap


def test_max_columnar_universe_reads_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_COLUMNAR_UNIVERSE", "123")
    assert codegen._default_max_universe() == 123
    for malformed in ("-1", "lots"):
        monkeypatch.setenv("REPRO_MAX_COLUMNAR_UNIVERSE", malformed)
        assert codegen._default_max_universe() == 1 << 22
    monkeypatch.delenv("REPRO_MAX_COLUMNAR_UNIVERSE")
    assert codegen._default_max_universe() == 1 << 22


def test_cap_degrades_with_an_event(monkeypatch):
    monkeypatch.setattr(codegen, "MAX_COLUMNAR_UNIVERSE", 4)
    query = CANONICAL_QUERIES["reach"]
    structure = random_graph(6, edge_probability=0.3, seed=3)
    degradations: list = []
    result = _relation(query, structure, "columnar",
                       degradations=degradations)
    assert result == _relation(query, structure, "tuple")
    assert any(event.stage == "columnar"
               and "columnar limit" in event.error
               for event in degradations)


# ----------------------------------------------------- the BFS select path


def test_pinned_closure_matches_full_closure(chunk_everything):
    """Select(Closure) with a pinned endpoint takes the single-source BFS
    fast path; reach/dreach answers must equal the tuple oracle's on a
    graph with rich structure (already covered above) *and* on edge
    cases: empty graphs and self-loops."""
    from repro.structures import graph_structure

    for edges in ([], [(0, 0)], [(0, 1), (1, 0)], [(1, 2), (2, 3)]):
        structure = graph_structure(4, edges)
        for name in ("reach", "dreach", "gap"):
            query = CANONICAL_QUERIES[name]
            assert _relation(query, structure, "columnar") \
                == _relation(query, structure, "tuple"), (name, edges)
