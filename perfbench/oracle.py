"""Reference answers for the ten canonical graph queries, computed from
their definitions with plain Python bitsets.

This code shares nothing with the program's logic layer (no formulas, no
plans, no kernels), so it is an independent source to check the columnar
backend against.  The self-test cross-checks it against the program's
``plan`` backend with the optimizer off on small structures.

Semantics, from ``repro.logic.queries``:

* ``tc`` / ``dtc`` — reflexive-transitive closure of ``E`` / of the edges
  out of vertices with exactly one successor;
* ``non-reach`` — every pair not in ``tc``;
* ``count-reach`` / ``half-out`` — vertices reaching / with edges to at
  least ``ceil(n/2)`` vertices;
* ``reach`` / ``gap`` / ``dreach`` — ``tc`` / ``tc`` / ``dtc`` at
  ``(0, n-1)``;
* ``apath`` — the least fixed point of ``x = y or (some successor z has
  R(z, y), and if A(x) then every successor z has R(z, y))``; ``agap`` is
  ``apath`` at ``(0, n-1)``.

Relations come back as frozensets of tuples, sentences as ``True`` /
``False`` — the shape ``define_relation`` answers in is converted by
:func:`as_answer`.
"""

from __future__ import annotations


def successors(structure) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(structure.size)]
    for u, v in structure.relations["E"]:
        out[u].append(v)
    return out


def _closure_from(source: int, succ_bits: list[int]) -> int:
    reach = frontier = 1 << source
    while frontier:
        grown = 0
        bits = frontier
        while bits:
            low = bits & -bits
            grown |= succ_bits[low.bit_length() - 1]
            bits ^= low
        frontier = grown & ~reach
        reach |= frontier
    return reach


def _succ_bits(out: list[list[int]], deterministic: bool) -> list[int]:
    table = []
    for targets in out:
        bits = 0
        if not deterministic or len(targets) == 1:
            for target in targets:
                bits |= 1 << target
        table.append(bits)
    return table


def _rows(source: int, bits: int) -> list[tuple[int, int]]:
    rows = []
    while bits:
        low = bits & -bits
        rows.append((source, low.bit_length() - 1))
        bits ^= low
    return rows


def _apath(out: list[list[int]], universal: set[int], n: int
           ) -> frozenset[tuple[int, int]]:
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for u, targets in enumerate(out):
        for v in targets:
            predecessors[v].append(u)
    rows = []
    for target in range(n):
        missing = [len(targets) for targets in out]
        reached = {target}
        queue = [target]
        while queue:
            z = queue.pop()
            for x in predecessors[z]:
                if x in reached:
                    continue
                if x in universal:
                    missing[x] -= 1
                    if missing[x]:
                        continue
                reached.add(x)
                queue.append(x)
        rows.extend((x, target) for x in reached)
    return frozenset(rows)


def reference(structure, names) -> dict[str, object]:
    """Reference answers for the named canonical queries on ``structure``."""
    n = structure.size
    out = successors(structure)
    answers: dict[str, object] = {}
    half = (n + 1) // 2
    closures: dict[bool, dict[int, int]] = {}

    def closure(deterministic: bool, sources) -> dict[int, int]:
        table = closures.setdefault(deterministic, {})
        succ = None
        for source in sources:
            if source not in table:
                if succ is None:
                    succ = _succ_bits(out, deterministic)
                table[source] = _closure_from(source, succ)
        return table

    for name in names:
        if name in ("reach", "gap"):
            answers[name] = bool(closure(False, [0])[0] >> (n - 1) & 1)
        elif name == "dreach":
            answers[name] = bool(closure(True, [0])[0] >> (n - 1) & 1)
        elif name in ("tc", "dtc"):
            table = closure(name == "dtc", range(n))
            answers[name] = frozenset(
                row for source in range(n)
                for row in _rows(source, table[source]))
        elif name == "non-reach":
            table = closure(False, range(n))
            full = (1 << n) - 1
            answers[name] = frozenset(
                row for source in range(n)
                for row in _rows(source, full & ~table[source]))
        elif name == "count-reach":
            table = closure(False, range(n))
            answers[name] = frozenset(
                (source,) for source in range(n)
                if table[source].bit_count() >= half)
        elif name == "half-out":
            answers[name] = frozenset(
                (source,) for source in range(n)
                if len(set(out[source])) >= half)
        elif name in ("apath", "agap"):
            universal = {row[0] for row in structure.relations.get("A", ())}
            rows = _apath(out, universal, n)
            answers[name] = rows if name == "apath" else (0, n - 1) in rows
        else:
            raise KeyError(f"no reference for query {name!r}")
    return answers


def digest(answer):
    """A compact stand-in for an answer: a truth value stays itself, a
    relation becomes its size and the sum of its rows' hashes.  Keeping
    digests instead of relations keeps the expected answers from growing
    the heap every garbage collection walks."""
    if isinstance(answer, bool):
        return answer
    return len(answer), sum(map(hash, answer)) & 0xFFFFFFFFFFFFFFFF


def as_answer(rows: frozenset, variables: tuple[str, ...]):
    """``define_relation``'s rows in the reference's shape: a sentence's
    unit-or-empty relation becomes a truth value."""
    if variables:
        return rows
    return () in rows


def reply_digest(reply: dict):
    """The digest of a service reply's answer (a repeated row changes the
    size, so it cannot pass)."""
    if "rows" in reply:
        return digest([tuple(row) for row in reply["rows"]])
    return reply["result"]
