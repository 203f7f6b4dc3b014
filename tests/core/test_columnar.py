"""Columnar kernels (P7): bitset/CSR representations vs. set-level oracles.

Every kernel in :mod:`repro.core.columnar` is checked against the obvious
tuple-set computation on seeded random relations, and
:func:`closure_adjacency` against the engine's
:func:`~repro.core.engine.transitive_closure` kernel.
"""

import random

import pytest

from repro.core.columnar import (
    adjacency_of_binary,
    and_rows,
    andnot_rows,
    bits_of_unary,
    closure_adjacency,
    compose,
    count_per_source,
    csr_of_adjacency,
    adjacency_of_csr,
    iter_bits,
    mask_rows_source,
    mask_rows_target,
    or_rows,
    proj_source,
    proj_target,
    rows_of_adjacency,
    rows_of_bits,
    transpose,
)
from repro.core.engine import transitive_closure
from repro.core.errors import ResourceLimitExceeded
from repro.core.governor import Budget, Governor


def random_binary(n, density, seed):
    rng = random.Random(seed)
    return {(x, y) for x in range(n) for y in range(n)
            if rng.random() < density}


def random_unary(n, density, seed):
    rng = random.Random(seed)
    return {(x,) for x in range(n) if rng.random() < density}


@pytest.mark.parametrize("seed", range(5))
class TestKernelsAgainstSets:
    N = 17

    def test_bitset_roundtrip(self, seed):
        rows = random_unary(self.N, 0.4, seed)
        assert rows_of_bits(bits_of_unary(rows)) == rows

    def test_adjacency_roundtrip_and_csr(self, seed):
        rows = random_binary(self.N, 0.2, seed)
        adj = adjacency_of_binary(rows, self.N)
        assert rows_of_adjacency(adj) == rows
        assert adjacency_of_csr(*csr_of_adjacency(adj)) == adj

    def test_iter_bits_ascending(self, seed):
        rows = random_unary(self.N, 0.5, seed)
        got = list(iter_bits(bits_of_unary(rows)))
        assert got == sorted(x for (x,) in rows)

    def test_transpose(self, seed):
        rows = random_binary(self.N, 0.25, seed)
        adj = adjacency_of_binary(rows, self.N)
        assert rows_of_adjacency(transpose(adj, self.N)) == \
            {(y, x) for x, y in rows}

    def test_compose(self, seed):
        left = random_binary(self.N, 0.2, seed)
        right = random_binary(self.N, 0.2, seed + 100)
        got = rows_of_adjacency(compose(
            adjacency_of_binary(left, self.N),
            adjacency_of_binary(right, self.N)))
        want = {(x, z) for x, y in left for y2, z in right if y == y2}
        assert got == want

    def test_masks_and_projections(self, seed):
        rows = random_binary(self.N, 0.3, seed)
        keep = random_unary(self.N, 0.5, seed + 1)
        adj = adjacency_of_binary(rows, self.N)
        bits = bits_of_unary(keep)
        assert rows_of_adjacency(mask_rows_source(adj, bits)) == \
            {(x, y) for x, y in rows if (x,) in keep}
        assert rows_of_adjacency(mask_rows_target(adj, bits)) == \
            {(x, y) for x, y in rows if (y,) in keep}
        assert rows_of_bits(proj_source(adj)) == {(x,) for x, _ in rows}
        assert rows_of_bits(proj_target(adj)) == {(y,) for _, y in rows}

    def test_rowwise_algebra(self, seed):
        a = adjacency_of_binary(random_binary(self.N, 0.3, seed), self.N)
        b = adjacency_of_binary(random_binary(self.N, 0.3, seed + 50), self.N)
        assert rows_of_adjacency(and_rows(a, b)) == \
            rows_of_adjacency(a) & rows_of_adjacency(b)
        assert rows_of_adjacency(andnot_rows(a, b)) == \
            rows_of_adjacency(a) - rows_of_adjacency(b)
        assert rows_of_adjacency(or_rows((a, b))) == \
            rows_of_adjacency(a) | rows_of_adjacency(b)

    def test_count_per_source(self, seed):
        rows = random_binary(self.N, 0.3, seed)
        adj = adjacency_of_binary(rows, self.N)
        for threshold in (1, 3, 8):
            want = {(x,) for x in range(self.N)
                    if sum(1 for r in rows if r[0] == x) >= threshold}
            assert rows_of_bits(count_per_source(adj, threshold)) == want


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("deterministic", [False, True])
def test_closure_matches_engine_kernel(seed, deterministic):
    """Frontier-BFS closure over row bitsets == the engine's set-level
    transitive-closure kernel (both reflexive over the universe)."""
    n = 13
    rows = random_binary(n, 0.15, seed)
    successors = {}
    for x, y in rows:
        successors.setdefault((x,), set()).add((y,))
    want = {(a[0], b[0]) for a, b in
            transitive_closure(successors, deterministic=deterministic)}
    want |= {(i, i) for i in range(n)}
    adj = adjacency_of_binary(rows, n)
    got = rows_of_adjacency(
        closure_adjacency(adj, n, deterministic=deterministic))
    assert got == want


def test_closure_respects_round_budget():
    n = 40
    adj = adjacency_of_binary({(i, i + 1) for i in range(n - 1)}, n)
    governor = Governor(Budget(max_fixpoint_rounds=3))
    with pytest.raises(ResourceLimitExceeded):
        closure_adjacency(adj, n, governor=governor)


class TestColumnarRelation:
    """Relation operations on the columnar payloads, driven through the
    kernels directly: bitsets for unary relations, bitmask rows (with a
    CSR form) for binary ones."""

    def test_representation_choice(self):
        n = 9
        assert bits_of_unary({(1,)}) == 0b10
        adj = adjacency_of_binary({(1, 2)}, n)
        assert len(adj) == n
        assert adj[1] == 0b100 and not any(adj[:1] + adj[2:])
        offsets, targets = csr_of_adjacency(adj)
        assert len(offsets) == n + 1
        assert list(targets) == [2]

    def test_set_protocol(self):
        rows = {(2, 1), (0, 3)}
        adj = adjacency_of_binary(rows, 5)
        assert sum(bin(row).count("1") for row in adj) == 2
        assert adj[2] >> 1 & 1 and not adj[1] >> 2 & 1
        offsets, targets = csr_of_adjacency(adj)
        ordered = [(x, y) for x in range(5)
                   for y in targets[offsets[x]:offsets[x + 1]]]
        assert ordered == [(0, 3), (2, 1)]  # sorted CSR order
        assert rows_of_adjacency(adj) == rows

    def test_boolean_algebra_and_complement(self):
        n = 7
        a = bits_of_unary({(1,), (3,), (5,)})
        b = bits_of_unary({(3,), (6,)})
        full = (1 << n) - 1
        assert rows_of_bits(a | b) == {(1,), (3,), (5,), (6,)}
        assert rows_of_bits(a & ~b) == {(1,), (5,)}
        assert rows_of_bits(a & b) == {(3,)}
        assert rows_of_bits(full & ~a) == {(0,), (2,), (4,), (6,)}
        binary = adjacency_of_binary({(0, 1)}, 3)
        everything = [(1 << 3) - 1] * 3
        assert rows_of_adjacency(andnot_rows(everything, binary)) == \
            {(x, y) for x in range(3) for y in range(3)} - {(0, 1)}

    def test_semijoins(self):
        n = 6
        edges = adjacency_of_binary({(0, 1), (1, 2), (4, 5)}, n)
        marked = bits_of_unary({(1,), (5,)})
        unmarked = ((1 << n) - 1) & ~marked
        assert rows_of_adjacency(mask_rows_source(edges, marked)) == \
            {(1, 2)}
        assert rows_of_adjacency(mask_rows_target(edges, marked)) == \
            {(0, 1), (4, 5)}
        assert rows_of_adjacency(mask_rows_source(edges, unmarked)) == \
            {(0, 1), (4, 5)}
        assert rows_of_adjacency(mask_rows_target(edges, unmarked)) == \
            {(1, 2)}

    def test_project_rename_select(self):
        n = 4
        adj = adjacency_of_binary({(0, 2), (1, 2)}, n)
        assert rows_of_bits(proj_source(adj)) == {(0,), (1,)}
        assert rows_of_bits(proj_target(adj)) == {(2,)}
        assert rows_of_adjacency(transpose(adj, n)) == {(2, 0), (2, 1)}
        assert rows_of_adjacency(
            mask_rows_source(adj, bits_of_unary({(1,), (2,), (3,)}))) == \
            {(1, 2)}

    def test_closure_and_compose(self):
        n = 4
        path = adjacency_of_binary({(0, 1), (1, 2), (2, 3)}, n)
        closed = rows_of_adjacency(closure_adjacency(path, n))
        assert (0, 3) in closed and (3, 0) not in closed
        assert (2, 2) in closed  # reflexive
        assert rows_of_adjacency(compose(path, path)) == {(0, 2), (1, 3)}
