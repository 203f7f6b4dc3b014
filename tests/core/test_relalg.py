"""Unit tests for the semi-naive relational-algebra layer
(:mod:`repro.core.relalg`): the :class:`IndexedRelation` data structure, the
bulk operators, and the naive/semi-naive fixed-point and closure kernels
(including their dispatch through the engine and the Session facade).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.engine import Session, least_fixpoint, transitive_closure
from repro.core.relalg import (
    IndexedRelation,
    naive_closure,
    naive_fixpoint,
    seminaive_closure,
    seminaive_fixpoint,
)


def random_successors(size: int, out_degree: float, seed: int) -> dict[int, list[int]]:
    rng = random.Random(seed)
    probability = out_degree / size
    return {
        u: [v for v in range(size) if rng.random() < probability]
        for u in range(size)
    }


def dfs_closure(successors, deterministic=False):
    """An independent oracle: per-start depth-first search (the pre-semi-naive
    implementation of the closure kernel)."""
    edges = {u: tuple(vs) for u, vs in successors.items()}
    if deterministic:
        edges = {u: (vs if len(vs) == 1 else ()) for u, vs in edges.items()}
    closure = set()
    for start in edges:
        reachable = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in edges.get(node, ()):
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        closure.update((start, target) for target in reachable)
    return closure


class TestIndexedRelation:
    def test_add_deduplicates_and_reports_newness(self):
        relation = IndexedRelation()
        assert relation.add((1, 2))
        assert not relation.add((1, 2))
        assert relation.add((2, 3))
        assert len(relation) == 2
        assert (1, 2) in relation and (9, 9) not in relation
        assert set(relation) == {(1, 2), (2, 3)}

    def test_arity_is_inferred_and_enforced(self):
        relation = IndexedRelation([(1, 2, 3)])
        assert relation.arity == 3
        with pytest.raises(ValueError):
            relation.add((1, 2))
        with pytest.raises(IndexError):
            IndexedRelation([(1, 2)]).index(5)

    def test_rows_normalise_to_tuples(self):
        relation = IndexedRelation([[1, 2]])
        assert (1, 2) in relation
        assert not relation.add([1, 2])

    def test_index_is_built_lazily_and_maintained_incrementally(self):
        relation = IndexedRelation([(1, 10), (2, 10), (1, 20)])
        by_target = relation.index(1)
        assert by_target[10] == {(1, 10), (2, 10)}
        # Adds after the index is built must land in it.
        relation.add((3, 10))
        assert relation.matching(1, 10) == {(1, 10), (2, 10), (3, 10)}
        assert relation.matching(1, 99) == frozenset()
        # The lazily built index over a different column sees everything.
        assert relation.index(0)[1] == {(1, 10), (1, 20)}

    def test_join_probes_the_column_index(self):
        edges = IndexedRelation([(0, 1), (1, 2), (1, 3)])
        paths = edges.join(edges, left_column=1, right_column=0)
        assert set(paths) == {(0, 1, 2), (0, 1, 3)}
        composed = edges.join(
            edges, left_column=1, right_column=0,
            combine=lambda left, right: (left[0], right[1]),
        )
        assert set(composed) == {(0, 2), (0, 3)}

    def test_project_union_select(self):
        relation = IndexedRelation([(0, 1), (0, 2), (1, 2)])
        assert set(relation.project([0])) == {(0,), (1,)}
        assert set(relation.project([1, 0])) == {(1, 0), (2, 0), (2, 1)}
        assert set(relation.union([(7, 7)])) == {(0, 1), (0, 2), (1, 2), (7, 7)}
        assert set(relation.select(lambda row: row[0] == 0)) == {(0, 1), (0, 2)}

    def test_equality_against_sets_and_relations(self):
        assert IndexedRelation([(1, 2)]) == {(1, 2)}
        assert IndexedRelation([(1, 2)]) == IndexedRelation([(1, 2)])
        assert IndexedRelation([(1, 2)]) != {(2, 1)}

    def test_difference(self):
        relation = IndexedRelation([(0, 1), (0, 2), (1, 2)])
        assert set(relation.difference(IndexedRelation([(0, 2)]))) == {(0, 1), (1, 2)}
        # Plain iterables (and list-shaped rows) work too.
        assert set(relation.difference([[0, 1], (1, 2)])) == {(0, 2)}
        empty = relation.difference(relation)
        assert len(empty) == 0 and empty.arity == 2

    def test_product(self):
        left = IndexedRelation([(0,), (1,)])
        right = IndexedRelation([(7, 8)])
        product = left.product(right)
        assert product.arity == 3
        assert set(product) == {(0, 7, 8), (1, 7, 8)}
        # Zero-arity relations are the product's identity: {()} x R = R.
        unit = IndexedRelation([()])
        assert set(unit.product(right)) == set(right)
        assert set(right.product(unit)) == set(right)
        # An empty factor annihilates.
        assert len(left.product(IndexedRelation(arity=2))) == 0

    def test_rename_permutes_columns(self):
        relation = IndexedRelation([(0, 1, 2), (3, 4, 5)])
        swapped = relation.rename((2, 0, 1))
        assert set(swapped) == {(2, 0, 1), (5, 3, 4)}
        assert swapped.arity == 3
        # The identity permutation copies.
        assert set(relation.rename((0, 1, 2))) == set(relation)

    def test_rename_rejects_non_permutations(self):
        relation = IndexedRelation([(0, 1)])
        with pytest.raises(ValueError):
            relation.rename((0, 0))      # collapses a column
        with pytest.raises(ValueError):
            relation.rename((0,))        # drops a column
        with pytest.raises(ValueError):
            relation.rename((0, 2))      # out of range

    def test_matching_is_immutable_on_hits_and_misses(self):
        relation = IndexedRelation([(1, 10), (2, 10)])
        hit = relation.matching(1, 10)
        miss = relation.matching(1, 99)
        assert isinstance(hit, frozenset) and isinstance(miss, frozenset)
        # A caller holding the hit cannot corrupt the live index: hits used
        # to leak the internal mutable bucket.
        assert not hasattr(hit, "add")
        relation.add((3, 10))
        assert hit == {(1, 10), (2, 10)}          # snapshot, not a view
        assert relation.matching(1, 10) == {(1, 10), (2, 10), (3, 10)}
        assert relation.index(1)[10] == {(1, 10), (2, 10), (3, 10)}

    def test_composite_index_on(self):
        relation = IndexedRelation([(0, 1, 5), (0, 2, 5), (0, 1, 7)])
        index = relation.index_on((0, 1))
        assert index[(0, 1)] == {(0, 1, 5), (0, 1, 7)}
        assert index[(0, 2)] == {(0, 2, 5)}
        # Maintained incrementally once built, alongside single-column ones.
        by_last = relation.index(2)
        relation.add((0, 1, 9))
        assert index[(0, 1)] == {(0, 1, 5), (0, 1, 7), (0, 1, 9)}
        assert by_last[9] == {(0, 1, 9)}
        # The same key tuple returns the same (persistent) index object.
        assert relation.index_on((0, 1)) is index
        with pytest.raises(IndexError):
            relation.index_on((0, 5))

    def test_semijoin_and_antijoin(self):
        relation = IndexedRelation([(0, 1), (1, 2), (2, 3)])
        keys = IndexedRelation([(1,), (3,)])
        assert set(relation.semijoin(keys, (1,))) == {(0, 1), (2, 3)}
        assert set(relation.antijoin(keys, (1,))) == {(1, 2)}
        # Key columns may reorder: probe (target, source) pairs.
        swapped = IndexedRelation([(1, 0)])
        assert set(relation.semijoin(swapped, (1, 0))) == {(0, 1)}
        assert set(relation.antijoin(swapped, (1, 0))) == {(1, 2), (2, 3)}
        # Full-column keys degenerate to set intersection / difference.
        subset = IndexedRelation([(0, 1), (9, 9)])
        assert set(relation.semijoin(subset, (0, 1))) == {(0, 1)}
        assert set(relation.antijoin(subset, (0, 1))) == {(1, 2), (2, 3)}

    def test_semijoin_antijoin_empty_key_and_unknown_arity(self):
        # An empty key projects every row to (): membership against the
        # unit relation keeps (antijoin: drops) everything — including on
        # relations whose arity was never declared (adopt's default),
        # which must not be mistaken for the identity-key fast path.
        relation = IndexedRelation.adopt({(1, 2), (3, 4)})
        unit = IndexedRelation([()])
        empty = IndexedRelation(arity=0)
        assert set(relation.semijoin(unit, ())) == {(1, 2), (3, 4)}
        assert set(relation.antijoin(unit, ())) == set()
        assert set(relation.semijoin(empty, ())) == set()
        assert set(relation.antijoin(empty, ())) == {(1, 2), (3, 4)}

    def test_adopt_wraps_without_copying(self):
        rows = {(0, 1), (1, 2)}
        relation = IndexedRelation.adopt(rows, arity=2)
        assert relation.rows is rows
        assert relation.arity == 2 and len(relation) == 2
        # Indexes build lazily and stay maintained through add().
        assert relation.matching(0, 1) == {(1, 2)}
        relation.add((1, 5))
        assert relation.matching(0, 1) == {(1, 2), (1, 5)}


class TestFixpointKernels:
    def test_naive_fixpoint_iterates_to_stability(self):
        double = lambda current: frozenset(current | {max(current) * 2}
                                           if max(current) < 8 else current)
        assert naive_fixpoint(double, frozenset({1})) == {1, 2, 4, 8}

    def test_seminaive_first_round_runs_on_empty_initial(self):
        # Premise-free derivations must fire even when initial is empty.
        def delta_step(delta, total):
            return {(0,)} if not total else {(len(total),)} if len(total) < 3 else set()
        assert seminaive_fixpoint((), delta_step) == {(0,), (1,), (2,)}

    def test_seminaive_filters_known_facts(self):
        calls = []

        def delta_step(delta, total):
            calls.append(sorted(delta))
            return {(0,), (1,)}   # returns already-known facts every round

        result = seminaive_fixpoint({(0,)}, delta_step)
        assert result == {(0,), (1,)}
        # Round 1: delta = initial; round 2: delta = {(1,)}; round 3: empty delta
        # is never produced because known facts are filtered -> loop stops.
        assert calls == [[(0,)], [(1,)]]

    def test_seminaive_notes_peak_resident_rows(self):
        from repro.logic.plan import PlanStats

        stats = PlanStats()
        grow = lambda delta, total: {(value + 1,) for (value,) in delta
                                     if value < 5}
        result = seminaive_fixpoint({(0,)}, grow, stats=stats)
        assert result == {(v,) for v in range(6)}
        # Peak = total + frontier at the final (empty-derivation) round:
        # all six facts accumulated plus the one-row frontier still live.
        assert stats.peak_rows_resident == 7

    def test_engine_least_fixpoint_signatures(self):
        step = lambda current: frozenset(current | {1})
        assert least_fixpoint(step, frozenset()) == {1}
        grow = lambda delta, total: {value + 1 for value in delta if value < 4}
        assert least_fixpoint(initial={0}, delta_step=grow) == {0, 1, 2, 3, 4}
        assert least_fixpoint(initial={0}, delta_step=grow,
                              seminaive=False) == {0, 1, 2, 3, 4}
        with pytest.raises(TypeError):
            least_fixpoint(step, delta_step=grow)
        with pytest.raises(TypeError):
            least_fixpoint()


class TestClosureKernels:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_differential_naive_seminaive_dfs(self, seed, deterministic):
        successors = random_successors(14, out_degree=1.5, seed=seed)
        expected = dfs_closure(successors, deterministic)
        assert naive_closure(successors, deterministic) == expected
        assert seminaive_closure(successors, deterministic) == expected

    def test_closure_domain_is_the_mapping_keys(self):
        # 5 is a target but not a key: reachable, but no reflexive pair.
        closure = seminaive_closure({0: [5]})
        assert closure == {(0, 0), (0, 5)}
        assert naive_closure({0: [5]}) == closure

    def test_deterministic_prunes_branching_sources(self):
        successors = {0: [1, 2], 1: [3], 2: [], 3: []}
        assert transitive_closure(successors, deterministic=True) == {
            (0, 0), (1, 1), (1, 3), (2, 2), (3, 3),
        }

    def test_one_shot_target_iterators_are_materialized(self):
        successors = {0: iter([1]), 1: iter(())}
        assert transitive_closure(successors) == {(0, 0), (0, 1), (1, 1)}


class TestSessionKernelDispatch:
    def test_backends_share_the_kernels(self):
        successors = random_successors(10, out_degree=1.2, seed=3)
        expected = dfs_closure(successors)
        results = {
            backend: Session(backend=backend).transitive_closure(successors)
            for backend in ("compiled", "interp", "reference")
        }
        assert all(result == expected for result in results.values())

    def test_reference_backend_is_naive(self):
        assert not Session(backend="reference").seminaive
        assert Session(backend="compiled").seminaive
        assert Session(backend="interp").seminaive

    def test_session_least_fixpoint(self):
        grow = lambda delta, total: {value + 1 for value in delta if value < 3}
        for backend in ("compiled", "reference"):
            session = Session(backend=backend)
            assert session.least_fixpoint(initial={0}, delta_step=grow) == \
                {0, 1, 2, 3}


class TestFailedAddLeavesNoTrace:
    """Restore-on-exception at the data-structure level (PR 6): a rejected
    ``add`` — wrong arity — must leave the relation exactly as it was:
    rows and every built index."""

    @staticmethod
    def _snapshot(relation: IndexedRelation):
        return (
            set(relation.rows),
            {column: {key: set(rows) for key, rows in index.items()}
             for column, index in relation._indexes.items()},
        )

    @given(
        rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      max_size=20),
        bad=st.one_of(
            st.tuples(st.integers(0, 5)),
            st.tuples(st.integers(0, 5), st.integers(0, 5),
                      st.integers(0, 5)),
        ),
    )
    def test_rejected_add_is_a_noop(self, rows, bad):
        relation = IndexedRelation(rows, arity=2)
        relation.index(0)
        relation.index_on((0, 1))
        before = self._snapshot(relation)
        with pytest.raises(ValueError, match="arity mismatch"):
            relation.add(bad)
        assert self._snapshot(relation) == before
        # Still fully functional: a valid add lands in rows and both
        # maintained indexes.
        assert relation.add((0, 0)) or (0, 0) in before[0]
        assert (0, 0) in relation.index(0)[0]

    @given(rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=1, max_size=10))
    def test_rejected_update_keeps_the_valid_prefix_consistent(self, rows):
        """``update`` stops at the first bad row; everything added before
        it must be indexed exactly like a clean insertion would be."""
        relation = IndexedRelation(arity=2)
        relation.index(1)
        with pytest.raises(ValueError):
            relation.update(list(rows) + [(9,)])
        assert relation.rows == set(rows)
        for row in rows:
            assert row in relation.index(1)[row[1]]


class TestIndexTransfer:
    """P7 satellite: ``union`` / ``difference`` transfer existing
    per-column indexes to the result instead of forcing a full rebuild on
    the result's first probe."""

    def test_union_transfers_and_extends_indexes(self):
        relation = IndexedRelation([(0, 1), (1, 2), (2, 3)])
        single = relation.index(0)
        composite = relation.index_on((0, 1))
        result = relation.union([(3, 4), (1, 2)])
        # Transferred before any probe — index() takes the cached path,
        # no rebuild scan.
        assert 0 in result._indexes and (0, 1) in result._indexes
        assert result.index(0)[3] == {(3, 4)}        # extended by add()
        assert result.index(0)[0] == {(0, 1)}        # carried over
        assert result.index_on((0, 1))[(3, 4)] == {(3, 4)}
        # Buckets are clones: the operand's indexes are untouched.
        assert 3 not in single
        assert (3, 4) not in composite

    def test_difference_prunes_transferred_indexes(self):
        relation = IndexedRelation([(0, 1), (1, 2), (2, 3), (3, 4)])
        relation.index(1)
        small_cut = relation.difference([(1, 2)])           # clone-and-prune
        assert small_cut.index(1) == {1: {(0, 1)}, 3: {(2, 3)}, 4: {(3, 4)}}
        big_cut = relation.difference([(0, 1), (1, 2), (2, 3)])  # rebuild
        assert big_cut.index(1) == {4: {(3, 4)}}
        assert relation.index(1)[2] == {(1, 2)}             # operand intact

    def test_unindexed_operands_stay_lazy(self):
        relation = IndexedRelation([(0, 1)])
        assert not relation.union([(1, 2)])._indexes
        assert not relation.difference([(0, 1)])._indexes

    def test_transferred_indexes_answer_plan_joins(self):
        """End-to-end through the plan kernels: a join probing a
        union-built relation's index counts its probes in PlanStats and
        produces exactly the rows of a from-scratch relation."""
        from repro.logic.plan import ExecutionContext, Join, PlanStats, RelationScan
        from repro.structures import path_graph

        structure = path_graph(5)
        plan = Join(RelationScan("E", ("x", "y")), RelationScan("E", ("y", "z")))
        stats = PlanStats()
        rows = plan.execute(ExecutionContext(structure, stats=stats)).rows
        assert stats.index_probes > 0
        base = IndexedRelation(structure.relation("E"))
        base.index(0)
        merged = base.union([(0, 3)])
        probe = merged.index(0)  # transferred, already maintained
        expected = IndexedRelation(merged.rows)
        assert probe == expected.index(0)
        assert {(x, y, z) for (x, y), (y2, z) in
                ((l, r) for l in base for r in base if l[1] == r[0])} == rows
