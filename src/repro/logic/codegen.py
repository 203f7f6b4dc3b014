"""Per-plan code generation onto the columnar kernels.

This is the PR 2 exec-codegen trick (see :mod:`repro.core.compiler`)
applied to optimized relational plans: each plan is walked **once** and
emitted as the source of one specialized Python function — a straight-line
statement per node, a native ``while`` loop per fixed point — whose
operand representations were all resolved at emission time.  Steady-state
fixpoint rounds therefore run with zero interpretive dispatch: no
``isinstance`` ladder, no column-name arithmetic, no per-node method
calls, just pre-bound kernel closures over raw bitset/CSR payloads
(:mod:`repro.core.columnar`).

Representations are a pure function of a node's column count over the
dense universe ``0..n-1`` (the interning convention of
:mod:`repro.structures.intern`):

==========  =============================================================
0 columns   ``0``/``1`` — the unit relation as an int ("false"/"true")
1 column    one int used as a bit vector (bit ``i`` = element ``i``)
2 columns   bitmask rows (CSR adjacency): ``rows[x]`` = bitset over ``y``
3+ columns  a plain set of tuples — the **fallback** representation; each
            node that degrades to it is recorded on the compiled plan
==========  =============================================================

so the codegen cache key ``(plan, n)`` *is* the representation
signature: it pins every kernel choice the emitter makes.  The cache is
a bounded LRU like the optimizer's plan memo
(:class:`~repro.core.lru.LRUCache`) and its hits are surfaced through
``PlanStats.codegen_cache_hits``.

Nodes with no columnar kernel (``Closure`` over k-tuples with k ≥ 2,
``ConstrainedDomain``'s fused enumeration, and any future node the
emitter does not know) run as interpreter *islands*: the generated code
converts the fixed-point scope back to row sets, executes the node
through its own :meth:`~repro.logic.plan.Plan.execute` (which does its
own stats/governor accounting), and re-encodes the result.

Governor choke points mirror the interpreted plan executor's: every
materializing kernel notes its rows and ticks, every fixpoint round (and
closure BFS wave) notes a round, and ``DomainProduct``/``Closure`` check
the row budget *ahead* of building anything.  The one intentional
difference: ``index_probes`` stays zero — the columnar joins are bitwise
masks and merges, there is no hash index to probe.
"""

from __future__ import annotations

import os
from itertools import product as _cartesian
from typing import Callable, Iterable

from repro.core.columnar import (
    DENSE_WIDTH_THRESHOLD,
    adjacency_of_binary,
    and_rows,
    andnot_rows,
    bits_of_unary,
    closure_adjacency,
    compose,
    count_per_source,
    iter_bits,
    mask_rows_source,
    mask_rows_target,
    or_rows,
    proj_source,
    proj_target,
    reach_from,
    rows_of_adjacency,
    rows_of_bits,
    transpose,
)
from repro.core.governor import DegradationEvent
from repro.core.lru import LRUCache

from .plan import (
    AntiJoin,
    AuxScan,
    Closure,
    Col,
    Comparison,
    ConstrainedDomain,
    CountSelect,
    Cumulative,
    DeltaScan,
    Difference,
    DomainProduct,
    Empty,
    ExecutionContext,
    Fixpoint,
    Join,
    JoinProject,
    Plan,
    PlanStats,
    Product,
    Project,
    RelationScan,
    Rename,
    SeededClosure,
    Select,
    SemiJoin,
    Shared,
    Union,
)

__all__ = [
    "MAX_COLUMNAR_UNIVERSE",
    "CompiledColumnarPlan",
    "compile_columnar",
    "compiled_columnar",
    "clear_codegen_cache",
    "execute_columnar",
    "representation_of",
]


def _default_max_universe() -> int:
    """The columnar cap, overridable via ``REPRO_MAX_COLUMNAR_UNIVERSE``
    (falling back to the built-in default on a malformed value)."""
    raw = os.environ.get("REPRO_MAX_COLUMNAR_UNIVERSE")
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            return 1 << 22
        if value >= 0:
            return value
    return 1 << 22


#: Largest universe any columnar backend is built for.  Up to
#: :data:`~repro.core.columnar.DENSE_WIDTH_THRESHOLD` the generated code
#: runs on dense giant-int payloads; past it :func:`execute_columnar`
#: routes to the chunked interpreter (:mod:`repro.logic.chunked`), whose
#: CSR payloads stay O(edges), so the cap can sit far higher than the
#: dense default ever could.  The gate refuses universes past this so the
#: caller's ladder falls back to the set backend.  Override with the
#: ``REPRO_MAX_COLUMNAR_UNIVERSE`` environment variable (read at import).
MAX_COLUMNAR_UNIVERSE = _default_max_universe()

_KIND = {"0": "unit", "b": "bitset", "r": "csr", "t": "tuples"}


def _tag(arity: int) -> str:
    if arity == 0:
        return "0"
    if arity == 1:
        return "b"
    if arity == 2:
        return "r"
    return "t"


def representation_of(arity: int) -> str:
    """The representation the columnar backend picks for a relation of the
    given arity (``bitset`` / ``csr`` / ``tuples``; the CLI's ``--stats``
    per-relation report)."""
    return _KIND[_tag(arity)]


# ------------------------------------------------------- raw <-> row bridges


def _rows_of(raw, tag: str) -> set:
    """The row set of a raw payload (the island/fallback boundary)."""
    if tag == "0":
        return {()} if raw else set()
    if tag == "b":
        return rows_of_bits(raw)
    if tag == "r":
        return rows_of_adjacency(raw)
    return set(raw)


def _raw_of(rows: Iterable[tuple], arity: int, n: int):
    """Rows re-encoded into the representation their arity picks."""
    tag = _tag(arity)
    if tag == "0":
        rows = set(rows)
        return 1 if rows else 0
    if tag == "b":
        return bits_of_unary(rows)
    if tag == "r":
        return adjacency_of_binary(rows, n)
    return set(rows)


# ----------------------------------------------------------------- runtime


class _Runtime:
    """Everything one execution threads through the generated function."""

    __slots__ = ("n", "structure", "aux", "stats", "gov", "track")

    def __init__(self, n, structure, aux, stats, gov):
        self.n = n
        self.structure = structure
        self.aux = aux
        self.stats = stats
        self.gov = gov
        self.track = stats is not None or gov is not None


def _note(rt, count: int) -> None:
    stats = rt.stats
    if stats is not None:
        stats.rows_materialized += count
    gov = rt.gov
    if gov is not None:
        gov.note_rows(count)
        gov.tick()


def _note_b(rt, value: int) -> None:
    _note(rt, value.bit_count())


def _note_r(rt, rows: list) -> None:
    _note(rt, sum(bits.bit_count() for bits in rows))


def _note_t(rt, rows: set) -> None:
    _note(rt, len(rows))


def _rows_now(rt) -> int:
    stats = rt.stats
    return 0 if stats is None else stats.rows_materialized


def _round_pre(rt) -> None:
    gov = rt.gov
    if gov is not None:
        gov.note_round()


def _round_post(rt, before: int) -> None:
    stats = rt.stats
    if stats is not None:
        stats.fixpoint_rounds += 1
        stats.fixpoint_round_rows.append(stats.rows_materialized - before)


def _check_ahead(rt, count: int) -> None:
    gov = rt.gov
    if gov is not None:
        gov.check_rows_ahead(count)


def _shared_hit(rt) -> None:
    stats = rt.stats
    if stats is not None:
        stats.shared_hits += 1


#: Helpers every generated function sees, under stable short names.
_BASE_NS = {
    "_note": _note,
    "_nb": _note_b,
    "_nr": _note_r,
    "_nt": _note_t,
    "_rows_now": _rows_now,
    "_round_pre": _round_pre,
    "_round_post": _round_post,
    "_ca": _check_ahead,
    "_sh": _shared_hit,
    "_or_rows": or_rows,
    "_andnot": andnot_rows,
}


# --------------------------------------------------- shape-resolved kernels


def _project_fn(src_cols: tuple, out_cols: tuple, n: int) -> Callable | None:
    """A closure mapping a raw payload laid out as ``src_cols`` to one laid
    out as ``out_cols`` — or ``None`` when the shape has no columnar path
    (the caller then goes through the generic row-set kernel)."""
    positions = tuple(src_cols.index(c) for c in out_cols)
    arity = len(src_cols)
    if arity == 0 and positions == ():
        return lambda raw: raw
    if arity == 1:
        if positions == (0,):
            return lambda raw: raw
        if positions == ():
            return lambda raw: 1 if raw else 0
    if arity == 2:
        if positions == (0, 1):
            return lambda raw: raw
        if positions == (1, 0):
            return lambda raw: transpose(raw, n)
        if positions == (0,):
            return proj_source
        if positions == (1,):
            return proj_target
        if positions == ():
            return lambda raw: 1 if any(raw) else 0
    return None


def _generic_project_fn(src_cols: tuple, out_cols: tuple, src_tag: str,
                        n: int) -> Callable:
    positions = tuple(src_cols.index(c) for c in out_cols)
    arity = len(out_cols)

    def fn(raw):
        rows = {tuple(row[i] for i in positions)
                for row in _rows_of(raw, src_tag)}
        return _raw_of(rows, arity, n)

    return fn


def _empty_raw(tag: str, n: int):
    if tag == "r":
        return [0] * n
    if tag == "t":
        return set()
    return 0


def _join_fn(lc: tuple, rc: tuple, oc: tuple, n: int) -> Callable | None:
    """The columnar natural-join kernel for left layout ``lc``, right
    layout ``rc``, output layout ``oc`` — or ``None`` (generic fallback).

    All the plan IR's conjunction shapes funnel through here: ``Join``
    (``oc`` = left then right-only columns), ``JoinProject`` (any subset),
    ``Product`` (no shared columns), each resolved at codegen time to a
    composition of bitwise kernels.
    """
    la, ra = len(lc), len(rc)
    if la > 2 or ra > 2 or len(oc) > 2:
        return None

    # A side with no columns is the unit relation: gate the other side.
    if la == 0 or ra == 0:
        inner_cols = rc if la == 0 else lc
        pk = _project_fn(inner_cols, oc, n)
        if pk is None:
            return None
        empty = lambda: _empty_raw(_tag(len(oc)), n)  # noqa: E731
        if la == 0:
            return lambda l, r: pk(r) if l else empty()
        return lambda l, r: pk(l) if r else empty()

    if la == 1 and ra == 1:
        a, b = lc[0], rc[0]
        if a == b:
            if oc == (a,):
                return lambda l, r: l & r
            if oc == ():
                return lambda l, r: 1 if l & r else 0
            return None
        # Cross product of two unary relations.
        if oc == (a, b):
            return lambda l, r: [r if (l >> i) & 1 else 0 for i in range(n)]
        if oc == (b, a):
            return lambda l, r: [l if (r >> i) & 1 else 0 for i in range(n)]
        if oc == (a,):
            return lambda l, r: l if r else 0
        if oc == (b,):
            return lambda l, r: r if l else 0
        if oc == ():
            return lambda l, r: 1 if (l and r) else 0
        return None

    if {la, ra} == {1, 2}:
        # Orient: A is the binary side, bset the unary one.
        flip = la == 2
        acols = lc if flip else rc
        point = rc[0] if flip else lc[0]
        if point not in acols:
            return None  # a genuine 3-column cross: fallback
        masker = mask_rows_source if point == acols[0] else mask_rows_target
        pk = _project_fn(acols, oc, n)
        if pk is None:
            return None
        if flip:
            return lambda l, r: pk(masker(l, r))
        return lambda l, r: pk(masker(r, l))

    # Two binary sides.
    shared = tuple(c for c in rc if c in lc)
    if len(shared) == 2:
        orient = (lambda r: r) if rc == lc else (lambda r: transpose(r, n))
        pk = _project_fn(lc, oc, n)
        if pk is None:
            return None
        return lambda l, r: pk(and_rows(l, orient(r)))
    if len(shared) == 1:
        s = shared[0]
        u = lc[0] if lc[1] == s else lc[1]
        t = rc[0] if rc[1] == s else rc[1]
        lm = (lambda l: l) if lc == (u, s) else (lambda l: transpose(l, n))
        rm = (lambda r: r) if rc == (s, t) else (lambda r: transpose(r, n))
        if oc == (u, t):
            return lambda l, r: compose(lm(l), rm(r))
        if oc == (t, u):
            return lambda l, r: transpose(compose(lm(l), rm(r)), n)
        if oc == (u, s):
            return lambda l, r: mask_rows_target(lm(l), proj_source(rm(r)))
        if oc == (s, u):
            return lambda l, r: transpose(
                mask_rows_target(lm(l), proj_source(rm(r))), n)
        if oc == (s, t):
            return lambda l, r: mask_rows_source(rm(r), proj_target(lm(l)))
        if oc == (t, s):
            return lambda l, r: transpose(
                mask_rows_source(rm(r), proj_target(lm(l))), n)
        if oc == (u,):
            return lambda l, r: proj_source(
                mask_rows_target(lm(l), proj_source(rm(r))))
        if oc == (t,):
            return lambda l, r: proj_target(
                mask_rows_source(rm(r), proj_target(lm(l))))
        if oc == (s,):
            return lambda l, r: proj_target(lm(l)) & proj_source(rm(r))
        if oc == ():
            return lambda l, r: \
                1 if proj_target(lm(l)) & proj_source(rm(r)) else 0
    return None


def _generic_join_fn(lc: tuple, rc: tuple, oc: tuple, ltag: str, rtag: str,
                     n: int) -> Callable:
    """The representation of last resort: hash join over row sets."""
    shared = tuple(c for c in rc if c in lc)
    lk = tuple(lc.index(c) for c in shared)
    rk = tuple(rc.index(c) for c in shared)
    keep = tuple(i for i, c in enumerate(rc) if c not in lc)
    combined = tuple(lc) + tuple(rc[i] for i in keep)
    out_pos = tuple(combined.index(c) for c in oc)
    arity = len(oc)

    def fn(lraw, rraw):
        left = _rows_of(lraw, ltag)
        right = _rows_of(rraw, rtag)
        index: dict = {}
        for row in right:
            index.setdefault(tuple(row[i] for i in rk), []).append(row)
        out: set = set()
        add = out.add
        for row in left:
            for match in index.get(tuple(row[i] for i in lk), ()):
                full_row = row + tuple(match[i] for i in keep)
                add(tuple(full_row[i] for i in out_pos))
        return _raw_of(out, arity, n)

    return fn


def _semi_fn(lc: tuple, rc: tuple, n: int, anti: bool) -> Callable | None:
    """Semijoin/antijoin (``rc`` ⊆ ``lc``) as bitset masks."""
    la, ra = len(lc), len(rc)
    full = (1 << n) - 1
    if ra == 0:
        if anti:
            return lambda l, r: _empty_raw(_tag(la), n) if r else l
        return lambda l, r: l if r else _empty_raw(_tag(la), n)
    if la == 1 and ra == 1:
        if anti:
            return lambda l, r: l & ~r
        return lambda l, r: l & r
    if la == 2 and ra == 2:
        orient = (lambda r: r) if rc == lc else (lambda r: transpose(r, n))
        if anti:
            return lambda l, r: andnot_rows(l, orient(r))
        return lambda l, r: and_rows(l, orient(r))
    if la == 2 and ra == 1:
        masker = mask_rows_source if rc[0] == lc[0] else mask_rows_target
        if anti:
            return lambda l, r: masker(l, full & ~r)
        return lambda l, r: masker(l, r)
    return None


def _generic_semi_fn(lc: tuple, rc: tuple, ltag: str, rtag: str, n: int,
                     anti: bool) -> Callable:
    key = tuple(lc.index(c) for c in rc)
    arity = len(lc)

    def fn(lraw, rraw):
        left = _rows_of(lraw, ltag)
        keys = _rows_of(rraw, rtag)
        if anti:
            rows = {row for row in left
                    if tuple(row[i] for i in key) not in keys}
        else:
            rows = {row for row in left
                    if tuple(row[i] for i in key) in keys}
        return _raw_of(rows, arity, n)

    return fn


def _unary_mask(comparison: Comparison, n: int) -> int:
    """The values satisfying a single-column comparison, as a bit vector."""
    bits = 0
    for value in range(n):
        if comparison.evaluate((value, value), n):
            bits |= 1 << value
    return bits


def _pair_mask_fn(op: str, flipped: bool, full: int) -> Callable[[int], int]:
    """For a two-column comparison over ``(x, y)`` rows: the mask of ``y``
    satisfying it, as a function of ``x`` (``flipped`` means the comparison
    reads ``(y, x)``)."""
    if op == "eq":
        return lambda x: 1 << x
    if op == "ne":
        return lambda x: full ^ (1 << x)
    if op == "leq":
        if flipped:  # y <= x
            return lambda x: (2 << x) - 1
        return lambda x: full & ~((1 << x) - 1)  # x <= y
    if flipped:  # y > x
        return lambda x: full & ~((2 << x) - 1)
    return lambda x: (1 << x) - 1  # x > y


def _select_r_fn(comparisons: tuple, n: int) -> Callable:
    """The binary-relation selection kernel: comparisons classified once at
    codegen time into a source mask, a target mask, and per-source masks
    for the two-column predicates."""
    full = (1 << n) - 1
    source_mask = full
    target_mask = full
    pair_fns = []
    for comparison in comparisons:
        used = set(comparison.columns_used())
        if used <= {0}:
            mask = 0
            for value in range(n):
                if comparison.evaluate((value, 0), n):
                    mask |= 1 << value
            source_mask &= mask
        elif used == {1}:
            mask = 0
            for value in range(n):
                if comparison.evaluate((0, value), n):
                    mask |= 1 << value
            target_mask &= mask
        else:
            flipped = isinstance(comparison.left, Col) \
                and comparison.left.index == 1
            pair_fns.append(_pair_mask_fn(comparison.op, flipped, full))

    if not pair_fns:
        def fn(rows):
            return [(bits & target_mask) if (source_mask >> x) & 1 else 0
                    for x, bits in enumerate(rows)]
        return fn

    def fn(rows):
        out = []
        append = out.append
        for x, bits in enumerate(rows):
            if not (source_mask >> x) & 1:
                append(0)
                continue
            bits &= target_mask
            for pair in pair_fns:
                if not bits:
                    break
                bits &= pair(x)
            append(bits)
        return out

    return fn


def _seeded_rows(adjacency: list[int], n: int, seed: int, endpoint: int,
                 deterministic: bool, governor) -> list[int]:
    """A :class:`~repro.logic.plan.SeededClosure` over bitmask rows: one
    :func:`~repro.core.columnar.reach_from` BFS from ``seed``, over the
    transposed rows when the target is the pinned endpoint."""
    out = [0] * n
    if not 0 <= seed < n:
        return out
    if deterministic:
        adjacency = [row if row.bit_count() == 1 else 0 for row in adjacency]
    if endpoint == 0:
        out[seed] = reach_from(adjacency, seed, governor)
        return out
    bit = 1 << seed
    for source in iter_bits(reach_from(transpose(adjacency, n), seed,
                                       governor)):
        out[source] = bit
    return out


# ----------------------------------------------------------------- emitter


def _walk(plan: Plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)


def _scoped_cumulatives(node: Fixpoint) -> list[Cumulative]:
    """The Cumulative nodes whose accumulator belongs to ``node``'s store:
    everything in its bodies *except* subtrees owned by a nested fixed
    point (which runs its own store, exactly like the interpreter's
    per-fixpoint accumulator dict)."""
    found: list[Cumulative] = []
    seen: set[int] = set()

    def visit(plan: Plan) -> None:
        if isinstance(plan, Fixpoint):
            return
        if isinstance(plan, Cumulative) and id(plan) not in seen:
            seen.add(id(plan))
            found.append(plan)
        for child in plan.children():
            visit(child)

    for child in node.children():
        visit(child)
    return found


class _Emitter:
    """Walks a plan once and accumulates the specialized function body.

    State beyond the source lines: the fixed-point *scope* (auxiliary name
    -> the local variables holding its total and frontier), the global and
    per-round CSE tables backing ``Shared`` nodes, the per-fixpoint
    accumulator variables backing ``Cumulative``, and the representation
    census/fallback log reported on the compiled plan.
    """

    def __init__(self, n: int):
        self.n = n
        self.full = (1 << n) - 1
        self.lines: list[str] = []
        self.indent = 1
        self.ns: dict = dict(_BASE_NS)
        self.ns["_n"] = n
        self.counter = 0
        self.scope: dict[str, tuple[str, str | None, str]] = {}
        self.global_cse: dict[Plan, str] = {}
        self.round_cse: list[dict[Plan, str]] = []
        self.cumulative_stack: list[dict[Cumulative, str]] = []
        self.conditional = 0
        self.fallbacks: list[str] = []
        self.reps = {"unit": 0, "bitset": 0, "csr": 0, "tuples": 0}

    # ------------------------------------------------------------ plumbing

    def fresh(self, prefix: str = "v") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def bind(self, obj) -> str:
        name = f"_k{len(self.ns)}"
        self.ns[name] = obj
        return name

    def note(self, var: str, tag: str) -> None:
        if tag == "b":
            self.emit(f"if _t: _nb(rt, {var})")
        elif tag == "r":
            self.emit(f"if _t: _nr(rt, {var})")
        elif tag == "t":
            self.emit(f"if _t: _nt(rt, {var})")
        else:
            self.emit(f"if _t: _note(rt, {var})")

    def empty_expr(self, tag: str) -> str:
        if tag == "r":
            return f"[0] * {self.n}"
        if tag == "t":
            return "set()"
        return "0"

    # ---------------------------------------------------------- dispatch

    def emit_plan(self, node: Plan) -> tuple[str, str]:
        tag = _tag(len(node.columns))
        if tag == "t" and not isinstance(node, (Rename, Shared, Cumulative)):
            self.fallbacks.append(node.label())
        if not isinstance(node, (Rename, Shared, Cumulative)):
            self.reps[_KIND[tag]] += 1
        if isinstance(node, RelationScan):
            return self._emit_relation_scan(node, tag)
        if isinstance(node, AuxScan):
            return self._emit_aux_scan(node, tag)
        if isinstance(node, DeltaScan):
            return self._emit_delta_scan(node, tag)
        if isinstance(node, DomainProduct):
            return self._emit_domain(node, tag)
        if isinstance(node, Empty):
            var = self.fresh()
            self.emit(f"{var} = {self.empty_expr(tag)}")
            return var, tag
        if isinstance(node, Select):
            return self._emit_select(node, tag)
        if isinstance(node, Project):
            return self._emit_project(node, tag)
        if isinstance(node, Rename):
            return self.emit_plan(node.child)
        if isinstance(node, (Join, JoinProject, Product)):
            return self._emit_join(node, tag)
        if isinstance(node, (SemiJoin, AntiJoin)):
            return self._emit_semi(node, tag, isinstance(node, AntiJoin))
        if isinstance(node, Union):
            return self._emit_union(node, tag)
        if isinstance(node, Difference):
            return self._emit_difference(node, tag)
        if isinstance(node, CountSelect):
            return self._emit_count(node, tag)
        if isinstance(node, Fixpoint):
            return self._emit_fixpoint(node, tag)
        if isinstance(node, Closure):
            if node.k == 1:
                return self._emit_closure(node, tag)
            return self._emit_island(node, tag)
        if isinstance(node, SeededClosure):
            return self._emit_seeded_closure(node, tag)
        if isinstance(node, Shared):
            return self._emit_shared(node)
        if isinstance(node, Cumulative):
            return self._emit_cumulative(node)
        if isinstance(node, ConstrainedDomain):
            return self._emit_island(node, tag)
        # Future node kinds run interpreted rather than failing the compile.
        return self._emit_island(node, tag)

    # --------------------------------------------------------------- scans

    def _emit_relation_scan(self, node: RelationScan, tag: str
                            ) -> tuple[str, str]:
        name, order, n = node.name, node.order, self.n
        arity = len(node.columns)
        if tag == "b":
            fn = lambda rt: bits_of_unary(rt.structure.relation(name))  # noqa: E731
        elif tag == "r":
            if order == (1, 0):
                fn = lambda rt: adjacency_of_binary(  # noqa: E731
                    [(row[1], row[0]) for row in rt.structure.relation(name)
                     if len(row) == 2], n)
            else:
                fn = lambda rt: adjacency_of_binary(  # noqa: E731
                    rt.structure.relation(name), n)
        else:
            if order is not None:
                fn = lambda rt: {tuple(row[i] for i in order)  # noqa: E731
                                 for row in rt.structure.relation(name)
                                 if len(row) == arity}
            else:
                fn = lambda rt: {row for row in rt.structure.relation(name)  # noqa: E731
                                 if len(row) == arity}
        var = self.fresh()
        self.emit(f"{var} = {self.bind(fn)}(rt)")
        self.note(var, tag)
        return var, tag

    def _scope_read(self, var: str, order, tag: str) -> tuple[str, str]:
        """An in-scope total/frontier variable, with the scan's permutation
        applied (arity-2 reversal is a transpose)."""
        if order is None or order == tuple(range(len(order))):
            out = self.fresh()
            self.emit(f"{out} = {var}")
            return out, tag
        if tag == "r":  # order == (1, 0)
            out = self.fresh()
            kernel = self.bind(lambda raw: transpose(raw, self.n))
            self.emit(f"{out} = {kernel}({var})")
            return out, tag
        if tag == "t":
            kernel = self.bind(
                lambda raw, order=order: {tuple(row[i] for i in order)
                                          for row in raw})
            out = self.fresh()
            self.emit(f"{out} = {kernel}({var})")
            return out, tag
        out = self.fresh()
        self.emit(f"{out} = {var}")
        return out, tag

    def _emit_aux_scan(self, node: AuxScan, tag: str) -> tuple[str, str]:
        arity = len(node.columns)
        bound = self.scope.get(node.name)
        if bound is not None:
            total_var, _delta_var, bound_tag = bound
            if bound_tag != tag:
                var = self.fresh()
                self.emit(f"{var} = {self.empty_expr(tag)}")
                return var, tag
            var, tag = self._scope_read(total_var, node.order, tag)
            self.note(var, tag)
            return var, tag
        name, order, n = node.name, node.order, self.n

        def fn(rt):
            rows = [row for row in rt.aux.get(name, ())
                    if len(row) == arity
                    and all(0 <= value < n for value in row)]
            if order is not None:
                rows = [tuple(row[i] for i in order) for row in rows]
            return _raw_of(rows, arity, n)

        var = self.fresh()
        self.emit(f"{var} = {self.bind(fn)}(rt)")
        self.note(var, tag)
        return var, tag

    def _emit_delta_scan(self, node: DeltaScan, tag: str) -> tuple[str, str]:
        bound = self.scope.get(node.name)
        if bound is None or bound[1] is None or bound[2] != tag:
            var = self.fresh()
            self.emit(f"{var} = {self.empty_expr(tag)}")
            self.note(var, tag)
            return var, tag
        var, tag = self._scope_read(bound[1], node.order, tag)
        self.note(var, tag)
        return var, tag

    # ----------------------------------------------------------- leaf-ish

    def _emit_domain(self, node: DomainProduct, tag: str) -> tuple[str, str]:
        k = len(node.columns)
        count = self.n ** k
        var = self.fresh()
        self.emit(f"_ca(rt, {count})")
        if tag == "0":
            self.emit(f"{var} = 1")
        elif tag == "b":
            self.emit(f"{var} = {self.full}")
        elif tag == "r":
            self.emit(f"{var} = [{self.full}] * {self.n}")
        else:
            n = self.n
            fn = self.bind(lambda: set(_cartesian(range(n), repeat=k)))
            self.emit(f"{var} = {fn}()")
        self.emit(f"if _t: _note(rt, {count})")
        return var, tag

    def _emit_select(self, node: Select, tag: str) -> tuple[str, str]:
        child_var, child_tag = self.emit_plan(node.child)
        n = self.n
        var = self.fresh()
        if child_tag == "b":
            mask = self.full
            for comparison in node.comparisons:
                mask &= _unary_mask(comparison, n)
            self.emit(f"{var} = {child_var} & {mask}")
        elif child_tag == "r":
            kernel = self.bind(_select_r_fn(node.comparisons, n))
            self.emit(f"{var} = {kernel}({child_var})")
        elif child_tag == "t":
            comparisons = node.comparisons
            kernel = self.bind(
                lambda rows: {row for row in rows
                              if all(c.evaluate(row, n)
                                     for c in comparisons)})
            self.emit(f"{var} = {kernel}({child_var})")
        else:
            holds = all(c.evaluate((), n) for c in node.comparisons)
            self.emit(f"{var} = {child_var}" if holds else f"{var} = 0")
        self.note(var, tag)
        return var, tag

    def _emit_project(self, node: Project, tag: str) -> tuple[str, str]:
        child_var, child_tag = self.emit_plan(node.child)
        fn = None
        if child_tag != "t":
            fn = _project_fn(node.child.columns, node.columns, self.n)
        if fn is None:
            fn = _generic_project_fn(node.child.columns, node.columns,
                                     child_tag, self.n)
        var = self.fresh()
        self.emit(f"{var} = {self.bind(fn)}({child_var})")
        self.note(var, tag)
        return var, tag

    # ------------------------------------------------------------- algebra

    def _emit_join(self, node, tag: str) -> tuple[str, str]:
        left, right = node.children()
        left_var, left_tag = self.emit_plan(left)
        right_var, right_tag = self.emit_plan(right)
        fn = None
        if left_tag != "t" and right_tag != "t":
            fn = _join_fn(left.columns, right.columns, node.columns, self.n)
        if fn is None:
            fn = _generic_join_fn(left.columns, right.columns, node.columns,
                                  left_tag, right_tag, self.n)
        var = self.fresh()
        self.emit(f"{var} = {self.bind(fn)}({left_var}, {right_var})")
        self.note(var, tag)
        return var, tag

    def _emit_semi(self, node, tag: str, anti: bool) -> tuple[str, str]:
        left, right = node.children()
        left_var, left_tag = self.emit_plan(left)
        right_var, right_tag = self.emit_plan(right)
        fn = None
        if left_tag != "t" and right_tag != "t":
            fn = _semi_fn(left.columns, right.columns, self.n, anti)
        if fn is None:
            fn = _generic_semi_fn(left.columns, right.columns,
                                  left_tag, right_tag, self.n, anti)
        var = self.fresh()
        self.emit(f"{var} = {self.bind(fn)}({left_var}, {right_var})")
        self.note(var, tag)
        return var, tag

    def _emit_union(self, node: Union, tag: str) -> tuple[str, str]:
        operand_vars = [self.emit_plan(operand)[0]
                        for operand in node.operands]
        var = self.fresh()
        if tag == "r":
            self.emit(f"{var} = _or_rows(({', '.join(operand_vars)},))")
        else:
            self.emit(f"{var} = " + " | ".join(operand_vars))
        self.note(var, tag)
        return var, tag

    def _emit_difference(self, node: Difference, tag: str) -> tuple[str, str]:
        left_var, _ = self.emit_plan(node.left)
        right_var, _ = self.emit_plan(node.right)
        var = self.fresh()
        if tag == "b":
            self.emit(f"{var} = {left_var} & ~{right_var} & {self.full}")
        elif tag == "r":
            self.emit(f"{var} = _andnot({left_var}, {right_var})")
        elif tag == "t":
            self.emit(f"{var} = {left_var} - {right_var}")
        else:
            self.emit(f"{var} = {left_var} & ~{right_var} & 1")
        self.note(var, tag)
        return var, tag

    def _emit_count(self, node: CountSelect, tag: str) -> tuple[str, str]:
        n = self.n
        threshold = node.threshold
        if threshold == "half":
            threshold = (n + 1) // 2
        threshold = int(threshold)
        if threshold <= 0:
            # Vacuously true: the full domain over the remaining columns.
            return self._emit_domain(DomainProduct(node.columns), tag)
        child_var, child_tag = self.emit_plan(node.child)
        var = self.fresh()
        if child_tag == "r":
            position = node.child.columns.index(node.variable)
            if position == 1:
                fn = self.bind(
                    lambda rows: count_per_source(rows, threshold))
            else:
                fn = self.bind(
                    lambda rows: count_per_source(transpose(rows, n),
                                                  threshold))
            self.emit(f"{var} = {fn}({child_var})")
        elif child_tag == "b":
            self.emit(
                f"{var} = 1 if {child_var}.bit_count() >= {threshold} else 0")
        else:
            group = tuple(i for i, c in enumerate(node.child.columns)
                          if c != node.variable)
            arity = len(group)

            def fn(rows):
                counts: dict = {}
                for row in rows:
                    key = tuple(row[i] for i in group)
                    counts[key] = counts.get(key, 0) + 1
                return _raw_of(
                    (key for key, count in counts.items()
                     if count >= threshold), arity, n)

            self.emit(f"{var} = {self.bind(fn)}({child_var})")
        self.note(var, tag)
        return var, tag

    # --------------------------------------------------------- fixed points

    def _emit_closure(self, node: Closure, tag: str) -> tuple[str, str]:
        self.emit(f"_ca(rt, {self.n})")
        body_var, _ = self.emit_plan(node.body)
        n, deterministic = self.n, node.deterministic
        fn = self.bind(lambda rows, rt: closure_adjacency(
            rows, n, deterministic=deterministic, governor=rt.gov))
        var = self.fresh()
        self.emit(f"{var} = {fn}({body_var}, rt)")
        self.note(var, tag)
        return var, tag

    def _emit_seeded_closure(self, node: SeededClosure, tag: str
                             ) -> tuple[str, str]:
        self.emit(f"_ca(rt, {self.n})")
        body_var, _ = self.emit_plan(node.body)
        n = self.n
        seed = node.constant.resolve(n)
        fn = self.bind(lambda rows, rt: _seeded_rows(
            rows, n, seed, node.endpoint, node.deterministic, rt.gov))
        var = self.fresh()
        self.emit(f"{var} = {fn}({body_var}, rt)")
        self.note(var, tag)
        return var, tag

    def _bind_scope(self, name: str, entry):
        previous = self.scope.get(name)
        self.scope[name] = entry
        return previous

    def _restore_scope(self, name: str, previous) -> None:
        if previous is None:
            self.scope.pop(name, None)
        else:
            self.scope[name] = previous

    def _emit_fixpoint(self, node: Fixpoint, tag: str) -> tuple[str, str]:
        ftag = _tag(len(node.variables))
        # Hoist round-invariant shared subplans above the loop (they are
        # auxiliary-free by the optimizer's contract, so this is the memo
        # the interpreter keeps, paid before round one instead of during).
        for shared in _walk(node):
            if isinstance(shared, Shared) and not shared.volatile \
                    and shared.child not in self.global_cse:
                self._emit_shared(shared)
        store: dict[Cumulative, str] = {}
        for cumulative in _scoped_cumulatives(node):
            store[cumulative] = acc = self.fresh("acc")
            self.emit(f"{acc} = None")
        self.cumulative_stack.append(store)

        total, delta, new = self.fresh("tot"), self.fresh("dlt"), \
            self.fresh("new")
        # Round one: the full body against the empty relation.
        self.emit(f"{total} = {self.empty_expr(ftag)}")
        self.emit("_round_pre(rt)")
        before = self.fresh("bfr")
        self.emit(f"{before} = _rows_now(rt)")
        previous = self._bind_scope(node.relation, (total, None, ftag))
        self.round_cse.append({})
        body_var, _ = self.emit_plan(node.body)
        self.round_cse.pop()
        self.emit(f"_round_post(rt, {before})")
        if ftag == "t":
            # Private copy: the loop updates it in place, and the body's
            # result may be aliased by a Shared/Cumulative cache entry.
            self.emit(f"{total} = set({body_var})")
        else:
            self.emit(f"{total} = {body_var}")
        self.emit(f"{delta} = {body_var}")
        # Later rounds: the delta body against the frontier, or — when the
        # optimizer attached none — the full body again (naive stages).
        if ftag == "r":
            self.emit(f"while any({delta}):")
        else:
            self.emit(f"while {delta}:")
        self.indent += 1
        self.emit("_round_pre(rt)")
        self.emit(f"{before} = _rows_now(rt)")
        self._bind_scope(node.relation, (total, delta, ftag))
        self.round_cse.append({})
        step = node.body if node.delta_body is None else node.delta_body
        derived_var, _ = self.emit_plan(step)
        self.round_cse.pop()
        self.emit(f"_round_post(rt, {before})")
        if ftag == "r":
            self.emit(f"{new} = [a & ~b for a, b in "
                      f"zip({derived_var}, {total})]")
            self.emit(f"{total} = [a | b for a, b in zip({total}, {new})]")
        elif ftag == "t":
            self.emit(f"{new} = {derived_var} - {total}")
            self.emit(f"{total} |= {new}")
        else:
            self.emit(f"{new} = {derived_var} & ~{total}")
            self.emit(f"{total} |= {new}")
        self.emit(f"{delta} = {new}")
        self.indent -= 1
        self._restore_scope(node.relation, previous)
        self.cumulative_stack.pop()
        self.note(total, ftag)
        return total, tag

    # -------------------------------------------------- sharing and islands

    def _emit_shared(self, node: Shared) -> tuple[str, str]:
        child = node.child
        tag = _tag(len(child.columns))
        if node.volatile:
            table = self.round_cse[-1] if self.round_cse else None
        else:
            table = self.global_cse
        if table is not None:
            cached = table.get(child)
            if cached is not None:
                self.emit("if _t: _sh(rt)")
                return cached, tag
        var, tag = self.emit_plan(child)
        if table is not None and self.conditional == 0:
            table[child] = var
        return var, tag

    def _emit_cumulative(self, node: Cumulative) -> tuple[str, str]:
        tag = _tag(len(node.columns))
        store = self.cumulative_stack[-1] if self.cumulative_stack else None
        acc = store.get(node) if store is not None else None
        if acc is None:
            return self.emit_plan(node.full)
        self.conditional += 1
        self.emit(f"if {acc} is None:")
        self.indent += 1
        full_var, _ = self.emit_plan(node.full)
        self.emit(f"{acc} = {full_var}")
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        delta_var, _ = self.emit_plan(node.delta)
        if tag == "r":
            self.emit(f"{acc} = [a | b for a, b in zip({acc}, {delta_var})]")
        else:
            self.emit(f"{acc} = {acc} | {delta_var}")
        self.indent -= 1
        self.conditional -= 1
        return acc, tag

    def _emit_island(self, node: Plan, tag: str) -> tuple[str, str]:
        """Execute ``node`` through the interpreted plan executor, bridging
        the fixed-point scope both ways.  The island does its own stats and
        governor accounting (it runs ``Plan.execute``), so no note here."""
        spec = tuple((name, entry[2]) for name, entry in self.scope.items())
        args = []
        for _name, entry in self.scope.items():
            args.append(entry[0])
            args.append(entry[1] if entry[1] is not None else "None")
        arity = len(node.columns)
        n = self.n

        def fn(rt, *values):
            aux = dict(rt.aux)
            delta = {}
            for index, (name, bound_tag) in enumerate(spec):
                total_raw = values[2 * index]
                delta_raw = values[2 * index + 1]
                aux[name] = frozenset(_rows_of(total_raw, bound_tag))
                if delta_raw is not None:
                    delta[name] = frozenset(_rows_of(delta_raw, bound_tag))
            context = ExecutionContext(rt.structure, aux, delta, rt.stats,
                                       {}, {}, None, rt.gov)
            return _raw_of(node.execute(context).rows, arity, n)

        var = self.fresh()
        call_args = ", ".join(["rt"] + args)
        self.emit(f"{var} = {self.bind(fn)}({call_args})")
        return var, tag


# ------------------------------------------------------------ compiled plan


class CompiledColumnarPlan:
    """One plan, specialized: the generated source, the executable closure,
    and the emission census (representations chosen, tuple fallbacks)."""

    __slots__ = ("plan", "n", "source", "fn", "out_tag", "representations",
                 "fallbacks")

    def __init__(self, plan: Plan, n: int, source: str, fn: Callable,
                 out_tag: str, representations: dict, fallbacks: tuple):
        self.plan = plan
        self.n = n
        self.source = source
        self.fn = fn
        self.out_tag = out_tag
        self.representations = representations
        self.fallbacks = fallbacks

    def execute(self, structure, auxiliary=None, stats=None, governor=None
                ) -> frozenset:
        """Run the specialized function and decode the raw result to rows."""
        if structure.size != self.n:
            raise ValueError(
                f"plan compiled for universe {self.n}, got {structure.size}")
        runtime = _Runtime(self.n, structure, dict(auxiliary or {}), stats,
                           governor)
        return frozenset(_rows_of(self.fn(runtime), self.out_tag))

    def report(self) -> dict:
        """The per-plan representation summary ``--stats`` prints."""
        return {
            "universe": self.n,
            "representations": dict(self.representations),
            "tuple_fallbacks": list(self.fallbacks),
        }


def compile_columnar(plan: Plan, n: int) -> CompiledColumnarPlan:
    """Emit and ``exec`` the specialized function for ``plan`` over a
    universe of ``n`` elements."""
    emitter = _Emitter(n)
    var, tag = emitter.emit_plan(plan)
    emitter.emit(f"return {var}")
    source = "def _columnar_plan(rt):\n    _t = rt.track\n" \
        + "\n".join(emitter.lines) + "\n"
    namespace = emitter.ns
    exec(compile(source, f"<columnar-plan:{id(plan):x}>", "exec"), namespace)
    return CompiledColumnarPlan(plan, n, source, namespace["_columnar_plan"],
                                tag, emitter.reps, tuple(emitter.fallbacks))


# ------------------------------------------------------------------- cache


#: Compiled plans by ``(plan, n)``, shared process-wide (the query
#: service evaluates from several threads at once).  Compiled plans are
#: immutable, so a duplicate compile under a lost race is wasted work,
#: not corruption.
_CODEGEN_CACHE = LRUCache(512)


def clear_codegen_cache() -> None:
    """Drop every compiled plan (chaos/benchmark fixtures call this)."""
    _CODEGEN_CACHE.clear()


def compiled_columnar(plan: Plan, n: int, stats: PlanStats | None = None
                      ) -> CompiledColumnarPlan:
    """The cached compiled form of ``(plan, n)`` — the representation
    signature.  Hits are counted on ``stats``, which also receives the
    plan's representation report (``columnar_report``)."""
    key = (plan, n)
    compiled = _CODEGEN_CACHE.get(key)
    if compiled is not None:
        if stats is not None:
            stats.codegen_cache_hits += 1
    else:
        compiled = compile_columnar(plan, n)
        _CODEGEN_CACHE.put(key, compiled)
    if stats is not None:
        stats.columnar_report = compiled.report()
    return compiled


def execute_columnar(plan: Plan, structure, auxiliary=None,
                     stats: PlanStats | None = None, governor=None,
                     degradations: list | None = None) -> frozenset:
    """Compile (cached) and run ``plan`` columnar; the one-call entry the
    evaluation ladder uses.

    The cost gate refuses universes past :data:`MAX_COLUMNAR_UNIVERSE`.
    Between :data:`~repro.core.columnar.DENSE_WIDTH_THRESHOLD` and the cap
    the plan runs on the chunked interpreter (CSR payloads, O(edges)
    memory) instead of the dense generated code (giant-int masks, O(n)
    bytes per row).  Every node that fell back to the tuple representation
    is surfaced as a ``DegradationEvent("representation", "tuple", ...)``
    when the caller passes a ``degradations`` list.  ``stats`` receives
    the run's representation report (what the CLI's ``--stats`` shows).
    """
    if structure.size > MAX_COLUMNAR_UNIVERSE:
        raise ValueError(
            f"universe of {structure.size} exceeds the columnar limit "
            f"{MAX_COLUMNAR_UNIVERSE}")
    if structure.size > DENSE_WIDTH_THRESHOLD:
        from .chunked import execute_chunked

        result = execute_chunked(plan, structure, auxiliary=auxiliary,
                                 stats=stats, governor=governor)
        if stats is not None:
            stats.columnar_report = {
                "universe": structure.size,
                "backend": "chunked",
                "representations": {"*": "chunked-csr"},
                "tuple_fallbacks": [],
            }
        return result
    compiled = compiled_columnar(plan, structure.size, stats)
    if degradations is not None:
        for label in compiled.fallbacks:
            degradations.append(
                DegradationEvent("representation", "tuple", label))
    return compiled.execute(structure, auxiliary=auxiliary, stats=stats,
                            governor=governor)
