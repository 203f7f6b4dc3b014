"""The bounded LRU behind the optimizer's plan memo and codegen's
compiled-plan cache: past its limit it evicts only the least recently used
entry, and it counts hits, misses and evictions."""

from __future__ import annotations

from repro.core.lru import LRUCache


def test_filling_past_the_limit_evicts_only_the_least_recently_used():
    cache = LRUCache(3)
    for key in "abc":
        cache.put(key, key.upper())
    assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
    assert cache.get("a") == "A"          # "a" is now the most recent
    assert (cache.hits, cache.misses) == (1, 0)
    cache.put("d", "D")                   # evicts "b", the least recent
    assert cache.evictions == 1
    assert len(cache) == 3
    assert "b" not in cache
    assert [cache.get(key) for key in "acd"] == ["A", "C", "D"]
    assert cache.get("b") is None
    assert (cache.hits, cache.misses, cache.evictions) == (4, 1, 1)


def test_overwriting_refreshes_without_evicting():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 3)                     # refresh "a": "b" is now oldest
    cache.put("c", 4)
    assert "b" not in cache and cache.get("a") == 3
    assert cache.evictions == 1


def test_clear_drops_entries_but_keeps_lifetime_counts():
    cache = LRUCache(1)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("b")
    cache.clear()
    assert len(cache) == 0 and cache.get("b") is None
    assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 1)


def test_both_compiled_artifact_caches_are_bounded_lrus():
    from repro.logic import codegen, optimize

    assert isinstance(optimize._PLAN_CACHE, LRUCache)
    assert optimize._PLAN_CACHE.limit == 2048
    assert isinstance(codegen._CODEGEN_CACHE, LRUCache)
    assert codegen._CODEGEN_CACHE.limit == 512


def test_a_full_codegen_cache_keeps_its_hot_plan(monkeypatch):
    """Past the limit the hot entry survives: the old clear-everything
    eviction would have recompiled it."""
    from repro.logic import codegen
    from repro.logic.compile import compile_formula
    from repro.logic.formula import rel
    from repro.logic.plan import PlanStats

    monkeypatch.setattr(codegen, "_CODEGEN_CACHE", LRUCache(2))
    hot = compile_formula(rel("E", "x", "y"))
    cold = [compile_formula(rel("E", "y", "x")), compile_formula(rel("E", "x", "x"))]
    stats = PlanStats()
    codegen.compiled_columnar(hot, 4, stats)
    for plan in cold:
        codegen.compiled_columnar(hot, 4, stats)
        codegen.compiled_columnar(plan, 4, stats)
    assert codegen._CODEGEN_CACHE.evictions == 1
    assert (hot, 4) in codegen._CODEGEN_CACHE
    assert stats.codegen_cache_hits == 2
