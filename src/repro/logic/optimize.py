"""The plan optimizer: cost-based rewrites over the relational-plan IR.

:mod:`repro.logic.compile` emits plans that mirror the formula's syntax:
selections sit wherever the atom happened to be, conjunctions join in
source order, equality atoms and quantifier widening materialize full
``n^k`` domain products, negation always pays the active-domain
complement, and a :class:`~repro.logic.plan.Fixpoint` body is re-derived
in full every round.  This module is the standard database answer — a
pipeline of semantics-preserving rewrite passes, run once per (formula,
structure-statistics) pair:

1.  **Simplification** — identity projects/renames dropped, nested unions
    flattened, ``Empty``/unit operands absorbed, a ``DomainProduct``
    joined against columns another operand already covers removed.
2.  **Selection pushdown** — comparisons move below joins, products,
    unions, projections and differences into the operand whose columns
    they mention; a selection landing on a ``DomainProduct`` fuses into a
    :class:`~repro.logic.plan.ConstrainedDomain`, which applies the
    predicates *during* enumeration (an equality atom costs its output,
    not ``n^2``).
3.  **Dead-column pruning** (projection pushdown) — columns no operator
    above will ever read are dropped below joins and products, so
    quantified-away variables stop flowing through intermediate results.
4.  **Greedy cost-based join reordering** — maximal ``Join`` trees are
    flattened, ``DomainProduct`` leaves covered by other operands are
    dropped, and the chain is rebuilt greedily from cardinality estimates
    (live relation statistics; ``|L ⋈ R| ≈ |L|·|R| / n^{|shared|}``).
    While rebuilding, an operand that adds no new columns becomes a
    :class:`~repro.logic.plan.SemiJoin`, and a
    ``Difference(DomainProduct, φ)`` operand whose columns are already
    covered becomes an :class:`~repro.logic.plan.AntiJoin` against ``φ``
    directly — negation as a probe, not a materialized complement.
4c. **Demand-driven rewrites** — a selection pinning one endpoint of a
    k=1 closure to a constant becomes a
    :class:`~repro.logic.plan.SeededClosure` (one BFS from the constant
    instead of the all-pairs closure).  Its formula-level twin runs
    before lowering: an LFP whose constant argument meets an *invariant*
    fixed-point variable drops that argument (``gap`` and ``agap`` become
    unary fixed points).  Both fire only on constant pins.
5.  **Semi-naive delta rewriting** — every ``Fixpoint`` body is
    differentiated with respect to its own relation:
    ``d(plan)`` is the union over the auxiliary's occurrences of the plan
    with that :class:`~repro.logic.plan.AuxScan` replaced by a
    :class:`~repro.logic.plan.DeltaScan` (the frontier), so a linear body
    does O(Δ) work per round.  Occurrences the product rule cannot reach —
    under the right side of a ``Difference``/``AntiJoin``, under a
    ``CountSelect``, or inside a nested fixed point — fall back to
    re-deriving *that part* in full (sound: the part's current value
    contains every row it can newly contribute); disjuncts that do not
    mention the auxiliary at all run only in round one.
6.  **Common-subplan sharing** — structural hashing (plans are frozen
    dataclasses) finds repeated auxiliary-free subtrees and subtrees that
    are round-invariant inside a fixed-point body; each is wrapped in a
    :class:`~repro.logic.plan.Shared` node and executed once per context
    memo, so its relation — and the persistent join indexes built on it —
    is reused across occurrences and across fixpoint rounds.

The passes only ever rewrite plans into observationally identical plans;
``optimize=False`` on :class:`~repro.logic.eval.ModelChecker` /
:func:`~repro.logic.eval.define_relation` keeps the raw compiled plan as
the differential oracle, and the three-way suite in
``tests/logic/test_plan_differential.py`` pins optimized == raw == tuple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.core.lru import LRUCache
from repro.structures.structure import Structure
from repro.testing.chaos import chaos_point

from .compile import compile_formula
from .formula import (
    And,
    AuxAtom,
    ConstTerm,
    CountAtLeast,
    DTCAtom,
    EqAtom,
    Exists,
    Forall,
    Formula,
    Implies,
    LeqAtom,
    LFPAtom,
    Not,
    Or,
    RelAtom,
    TCAtom,
    Term,
    VarTerm,
    pretty,
    walk_formula,
)
from .plan import (
    AntiJoin,
    AuxScan,
    Closure,
    Col,
    Comparison,
    Const,
    ConstrainedDomain,
    CountSelect,
    Cumulative,
    DeltaScan,
    Difference,
    DomainProduct,
    Empty,
    Fixpoint,
    Join,
    JoinProject,
    Plan,
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
    "CostModel",
    "MaintenancePlan",
    "PlanInvariantError",
    "base_delta_name",
    "clear_plan_cache",
    "differentiate",
    "differentiate_relation",
    "estimate",
    "explain_optimized",
    "maintenance_strategy",
    "optimize_formula",
    "optimize_plan",
]


# --------------------------------------------------------------- cost model


class CostModel:
    """Cardinality statistics for cost-based decisions: the universe size,
    the live input-relation sizes, and — when available — per-relation
    degree statistics (``distinct_sources`` / ``distinct_targets`` /
    ``max_out_degree``, the shape facts a snapshot header persists).
    :meth:`key` is the hashable identity the optimizer memoizes on —
    two structures with the same statistics optimize identically."""

    __slots__ = ("size", "sizes", "degrees")

    def __init__(self, size: int, sizes: Mapping[str, int] | None = None,
                 degrees: Mapping[str, Mapping[str, int]] | None = None):
        self.size = max(int(size), 1)
        self.sizes = dict(sizes or {})
        self.degrees = {name: dict(stats)
                        for name, stats in (degrees or {}).items()}

    @classmethod
    def from_structure(cls, structure: Structure) -> "CostModel":
        return cls(structure.size,
                   {name: len(rows) for name, rows in structure.relations.items()},
                   getattr(structure, "degree_stats", None))

    def fanout(self, name: str, from_source: bool) -> float | None:
        """The average out- (or in-) degree of a binary relation over its
        *active* sources (targets), from persisted degree statistics;
        ``None`` when no statistics are recorded for the relation."""
        stats = self.degrees.get(name)
        if not stats:
            return None
        rows = stats.get("rows", self.sizes.get(name, 0))
        anchor = stats.get("distinct_sources" if from_source
                           else "distinct_targets", 0)
        if not anchor:
            return 0.0
        return rows / anchor

    def key(self) -> tuple:
        base = (self.size, tuple(sorted(self.sizes.items())))
        if not self.degrees:
            return base
        return base + (tuple(sorted(
            (name, tuple(sorted(stats.items())))
            for name, stats in self.degrees.items())),)


#: Estimated fraction of rows surviving one comparison predicate.
_SELECTIVITY = {"eq": None, "ne": 1.0, "leq": 0.5, "gt": 0.5}


def estimate(plan: Plan, cost: CostModel, memo: dict | None = None) -> float:
    """The estimated output cardinality of ``plan`` — scans from live
    stats, ``|L ⋈ R| ≈ |L|·|R| / n^{|shared|}``, comparisons by fixed
    selectivities (``=`` keeps ``1/n``, ``<=``/``>`` keep half), everything
    capped at ``n^k``.  Crude by design: the greedy reorderer only needs
    the estimates' *order* to be usually right."""
    if memo is None:
        memo = {}
    cached = memo.get(plan)
    if cached is not None:
        return cached
    n = float(cost.size)
    cap = n ** len(plan.columns)

    def sub(child: Plan) -> float:
        return estimate(child, cost, memo)

    if isinstance(plan, RelationScan):
        value = float(cost.sizes.get(plan.name, cap / 2))
    elif isinstance(plan, (AuxScan, DeltaScan)):
        value = cap / 2
    elif isinstance(plan, DomainProduct):
        value = cap
    elif isinstance(plan, ConstrainedDomain):
        value = cap * _predicates_selectivity(plan.comparisons, n)
    elif isinstance(plan, Empty):
        value = 0.0
    elif isinstance(plan, Select):
        value = sub(plan.child) * _predicates_selectivity(plan.comparisons, n)
    elif isinstance(plan, (Project, Rename, Shared)):
        value = sub(plan.children()[0])
    elif isinstance(plan, Cumulative):
        value = sub(plan.full)
    elif isinstance(plan, (Join, JoinProject)):
        shared_names = set(plan.left.columns) & set(plan.right.columns)
        shared = len(shared_names)
        value = sub(plan.left) * sub(plan.right) / (n ** shared)
        if shared == 1:
            refined = _degree_join_estimate(plan, cost, sub,
                                            next(iter(shared_names)))
            if refined is not None:
                value = min(value, refined)
    elif isinstance(plan, Product):
        value = sub(plan.left) * sub(plan.right)
    elif isinstance(plan, SemiJoin):
        hit = min(1.0, sub(plan.right) / (n ** len(plan.right.columns)))
        value = sub(plan.left) * hit
    elif isinstance(plan, AntiJoin):
        hit = min(1.0, sub(plan.right) / (n ** len(plan.right.columns)))
        value = sub(plan.left) * (1.0 - hit)
    elif isinstance(plan, Union):
        value = sum(sub(op) for op in plan.operands)
    elif isinstance(plan, Difference):
        value = sub(plan.left)
    elif isinstance(plan, CountSelect):
        value = min(sub(plan.child), cap) / 2
    elif isinstance(plan, (Fixpoint, Closure, SeededClosure)):
        value = cap / 2
    else:  # pragma: no cover - future node kinds estimate pessimistically
        value = cap
    value = min(value, cap)
    memo[plan] = value
    return value


def _degree_join_estimate(plan, cost: CostModel, sub, shared_name: str
                          ) -> float | None:
    """A tighter join bound from persisted degree statistics: when one
    side is (a wrapper around) a binary relation scan joined on one of
    its columns, each build-side row matches on average ``rows / distinct
    anchors`` scan rows — skew-aware where ``|L|·|R| / n`` assumes keys
    spread uniformly over the whole universe."""
    best = None
    for probe, build in ((plan.right, plan.left), (plan.left, plan.right)):
        if len(probe.columns) != 2 or shared_name not in probe.columns:
            continue
        position = probe.columns.index(shared_name)
        node = probe
        while isinstance(node, (Shared, Rename)):
            node = node.child  # positions survive renaming and sharing
        if not isinstance(node, RelationScan):
            continue
        raw = position if node.order is None else node.order[position]
        fanout = cost.fanout(node.name, from_source=(raw == 0))
        if fanout is None:
            continue
        candidate = sub(build) * fanout
        if best is None or candidate < best:
            best = candidate
    return best


def _predicates_selectivity(comparisons, n: float) -> float:
    fraction = 1.0
    for comparison in comparisons:
        keep = _SELECTIVITY[comparison.op]
        fraction *= (1.0 / n) if keep is None else keep
    return fraction


# ------------------------------------------------------------ pass plumbing


def _with_children(plan: Plan, children: Sequence[Plan]) -> Plan:
    """``plan`` rebuilt over new children (same node kind and attributes)."""
    if isinstance(plan, Select):
        return Select(children[0], plan.comparisons)
    if isinstance(plan, Project):
        return Project(children[0], plan.columns)
    if isinstance(plan, Rename):
        return Rename(children[0], plan.columns)
    if isinstance(plan, (Join, Product, Difference, SemiJoin, AntiJoin)):
        return type(plan)(children[0], children[1])
    if isinstance(plan, JoinProject):
        return JoinProject(children[0], children[1], plan.columns)
    if isinstance(plan, Union):
        return Union(tuple(children))
    if isinstance(plan, CountSelect):
        return CountSelect(children[0], plan.variable, plan.threshold)
    if isinstance(plan, Fixpoint):
        delta = children[1] if len(children) > 1 else None
        return Fixpoint(plan.relation, plan.variables, children[0], delta)
    if isinstance(plan, Closure):
        return Closure(children[0], plan.k, plan.deterministic)
    if isinstance(plan, SeededClosure):
        return replace(plan, body=children[0])
    if isinstance(plan, Shared):
        return Shared(children[0], plan.volatile)
    if isinstance(plan, Cumulative):
        return Cumulative(children[0], children[1])
    return plan  # leaves carry no children


def _rewrite(plan: Plan, rule) -> Plan:
    """Bottom-up rewriting: children first, then ``rule`` on the rebuilt
    node.  ``rule`` maps one node (whose children are already rewritten) to
    a replacement plan."""
    children = plan.children()
    if children:
        rebuilt = tuple(_rewrite(child, rule) for child in children)
        if any(new is not old for new, old in zip(rebuilt, children)):
            plan = _with_children(plan, rebuilt)
    return rule(plan)


# ------------------------------------------------------- 1. simplification


def _simplify(plan: Plan) -> Plan:
    return _rewrite(plan, _simplify_node)


_SCANS = (RelationScan, AuxScan, DeltaScan)


def _simplify_node(plan: Plan) -> Plan:
    if isinstance(plan, Project):
        child = plan.child
        if plan.columns == child.columns:
            return child
        if isinstance(child, Empty):
            return Empty(plan.columns)
        if isinstance(child, DomainProduct):
            return DomainProduct(plan.columns)
        if isinstance(child, Project):
            return Project(child.child, plan.columns)
        if isinstance(child, _SCANS) and \
                len(plan.columns) == len(child.columns) and \
                set(plan.columns) == set(child.columns):
            # A pure reordering of a scan: permute during emission instead
            # of copying the whole relation a second time.
            indices = tuple(child.columns.index(c) for c in plan.columns)
            if child.order is not None:
                indices = tuple(child.order[i] for i in indices)
            return replace(child, columns=plan.columns, order=indices)
    if isinstance(plan, Rename):
        child = plan.child
        if plan.columns == child.columns:
            return child
        if isinstance(child, Empty):
            return Empty(plan.columns)
        if isinstance(child, DomainProduct):
            return DomainProduct(plan.columns)
        if isinstance(child, Rename):
            return Rename(child.child, plan.columns)
        if isinstance(child, _SCANS):
            # Scans execute by position; relabeling their columns is free.
            return replace(child, columns=plan.columns)
    if isinstance(plan, Select):
        if not plan.comparisons:
            return plan.child
        if isinstance(plan.child, Empty):
            return plan.child
    if isinstance(plan, Union):
        operands: list[Plan] = []
        for operand in plan.operands:
            if isinstance(operand, Union):
                operands.extend(operand.operands)
            elif not isinstance(operand, Empty):
                operands.append(operand)
        seen: set[Plan] = set()
        unique = [op for op in operands
                  if not (op in seen or seen.add(op))]
        full = DomainProduct(plan.columns)
        if any(op == full for op in unique):
            return full
        if not unique:
            return Empty(plan.columns)
        if len(unique) == 1:
            return unique[0]
        if tuple(unique) != plan.operands:
            return Union(tuple(unique))
    if isinstance(plan, (Join, Product)):
        left, right = plan.left, plan.right
        if isinstance(left, Empty) or isinstance(right, Empty):
            return Empty(plan.columns)
        if isinstance(right, DomainProduct) and not right.columns:
            return left
        if isinstance(left, DomainProduct) and not left.columns:
            return right
        if isinstance(plan, Join):
            if isinstance(right, DomainProduct) and \
                    set(right.columns) <= set(left.columns):
                return left
            if isinstance(left, DomainProduct) and \
                    set(left.columns) <= set(right.columns):
                if plan.columns == right.columns:
                    return right
                return Project(right, plan.columns)
    if isinstance(plan, JoinProject):
        if isinstance(plan.left, Empty) or isinstance(plan.right, Empty):
            return Empty(plan.columns)
    if isinstance(plan, Difference):
        if isinstance(plan.right, Empty) or isinstance(plan.left, Empty):
            return plan.left
        if plan.left == plan.right:
            return Empty(plan.columns)
    if isinstance(plan, SemiJoin):
        if isinstance(plan.left, Empty) or isinstance(plan.right, Empty):
            return Empty(plan.columns)
        if isinstance(plan.right, DomainProduct):
            return plan.left
    if isinstance(plan, AntiJoin):
        if isinstance(plan.left, Empty) or isinstance(plan.right, Empty):
            return plan.left
        if isinstance(plan.right, DomainProduct):
            return Empty(plan.columns)
    return plan


# -------------------------------------------------- 2. selection pushdown


def _pushdown(plan: Plan) -> Plan:
    return _rewrite(plan, _pushdown_node)


def _pushdown_node(plan: Plan) -> Plan:
    if isinstance(plan, Select):
        return _push_select(plan.child, plan.comparisons)
    return plan


def _push_select(plan: Plan, comparisons: tuple) -> Plan:
    """A plan equivalent to ``Select(plan, comparisons)`` with the
    comparisons pushed as deep as their column references allow."""
    if not comparisons:
        return plan
    if isinstance(plan, Select):
        return _push_select(plan.child, plan.comparisons + tuple(comparisons))
    if isinstance(plan, Rename):
        # Renaming keeps positions, so the comparisons transfer verbatim.
        return Rename(_push_select(plan.child, comparisons), plan.columns)
    if isinstance(plan, Project):
        source = plan.child.columns
        if len(set(source)) == len(source):
            mapping = {i: source.index(name)
                       for i, name in enumerate(plan.columns)}
            pushed = tuple(c.remap(mapping) for c in comparisons)
            return Project(_push_select(plan.child, pushed), plan.columns)
    if isinstance(plan, Union):
        return Union(tuple(_push_select(op, comparisons)
                           for op in plan.operands))
    if isinstance(plan, (Join, Product)):
        out = plan.columns
        left_columns, right_columns = plan.left.columns, plan.right.columns
        left_set, right_set = set(left_columns), set(right_columns)
        left_pushed, right_pushed, kept = [], [], []
        for comparison in comparisons:
            names = {out[i] for i in comparison.columns_used()}
            if names <= left_set:
                mapping = {i: left_columns.index(out[i])
                           for i in comparison.columns_used()}
                left_pushed.append(comparison.remap(mapping))
            elif names <= right_set:
                mapping = {i: right_columns.index(out[i])
                           for i in comparison.columns_used()}
                right_pushed.append(comparison.remap(mapping))
            else:
                kept.append(comparison)
        left = _push_select(plan.left, tuple(left_pushed)) \
            if left_pushed else plan.left
        right = _push_select(plan.right, tuple(right_pushed)) \
            if right_pushed else plan.right
        core: Plan = type(plan)(left, right)
        return Select(core, tuple(kept)) if kept else core
    if isinstance(plan, (SemiJoin, AntiJoin)):
        # Output columns are exactly the left's: filter the probe side.
        return type(plan)(_push_select(plan.left, comparisons), plan.right)
    if isinstance(plan, Difference):
        # Filtering before or after subtraction removes the same rows.
        return Difference(_push_select(plan.left, comparisons), plan.right)
    if isinstance(plan, DomainProduct):
        return ConstrainedDomain(plan.columns, tuple(comparisons))
    if isinstance(plan, ConstrainedDomain):
        return ConstrainedDomain(plan.columns,
                                 plan.comparisons + tuple(comparisons))
    if isinstance(plan, Empty):
        return plan
    # Scans, counts, fixed points, closures: the selection stays here.
    return Select(plan, tuple(comparisons))


# --------------------------------------------- 3. dead-column pruning


def _prune(plan: Plan) -> Plan:
    return _prune_to(plan, frozenset(plan.columns))


def _prune_to(plan: Plan, needed: frozenset) -> Plan:
    """``plan`` with the columns outside ``needed`` dropped as early as the
    operators allow.  Contract: the result's columns are exactly
    ``plan.columns`` filtered to ``needed``, in the original order —
    parents can rely on the layout without re-deriving it."""
    columns = plan.columns
    if len(set(columns)) != len(columns):  # pragma: no cover - compiler
        return plan                         # emits distinct columns only
    kept = tuple(c for c in columns if c in needed)

    def contract(result: Plan) -> Plan:
        return result if result.columns == kept else Project(result, kept)

    if isinstance(plan, DomainProduct):
        return DomainProduct(kept)
    if isinstance(plan, Empty):
        return Empty(kept)
    if isinstance(plan, ConstrainedDomain):
        used = {columns[i] for comp in plan.comparisons
                for i in comp.columns_used()}
        inner = tuple(c for c in columns if c in needed or c in used)
        if inner != columns:
            mapping = {columns.index(c): inner.index(c) for c in inner}
            narrowed = ConstrainedDomain(inner, tuple(
                comp.remap({i: mapping[i] for i in comp.columns_used()})
                for comp in plan.comparisons))
            return contract(narrowed)
        return contract(plan)
    if isinstance(plan, (RelationScan, AuxScan, DeltaScan)):
        return contract(plan)
    if isinstance(plan, Select):
        source = plan.child.columns
        used = {source[i] for comp in plan.comparisons
                for i in comp.columns_used()}
        child = _prune_to(plan.child, needed | frozenset(used))
        new_source = child.columns
        mapping = {source.index(c): new_source.index(c) for c in new_source}
        remapped = tuple(
            comp.remap({i: mapping[i] for i in comp.columns_used()})
            for comp in plan.comparisons)
        return contract(Select(child, remapped))
    if isinstance(plan, Project):
        child = _prune_to(plan.child, frozenset(kept))
        return contract(child)
    if isinstance(plan, Rename):
        source = plan.child.columns
        positions = [i for i, name in enumerate(plan.columns) if name in needed]
        child = _prune_to(plan.child,
                          frozenset(source[i] for i in positions))
        names = tuple(plan.columns[i] for i in positions)
        return child if names == child.columns else Rename(child, names)
    if isinstance(plan, (Join, Product)):
        shared = set(plan.left.columns) & set(plan.right.columns)
        child_needed = needed | frozenset(shared)
        left = _prune_to(plan.left, child_needed)
        right = _prune_to(plan.right, child_needed)
        return contract(type(plan)(left, right))
    if isinstance(plan, Union):
        operands = tuple(_prune_to(op, needed) for op in plan.operands)
        if all(new is old for new, old in zip(operands, plan.operands)):
            return plan
        return Union(operands)
    if isinstance(plan, (SemiJoin, AntiJoin)):
        key = frozenset(plan.right.columns)
        left = _prune_to(plan.left, needed | key)
        right = _prune_to(plan.right, key)
        return contract(type(plan)(left, right))
    if isinstance(plan, Difference):
        # Row identity spans every column: both sides stay whole.
        left = _prune_to(plan.left, frozenset(columns))
        right = _prune_to(plan.right, frozenset(plan.right.columns))
        return contract(Difference(left, right))
    if isinstance(plan, CountSelect):
        # Dropping a group column changes the counts: the child stays whole.
        child = _prune_to(plan.child, frozenset(plan.child.columns))
        return contract(CountSelect(child, plan.variable, plan.threshold))
    if isinstance(plan, Fixpoint):
        body = _prune_to(plan.body, frozenset(plan.body.columns))
        delta = None if plan.delta_body is None else \
            _prune_to(plan.delta_body, frozenset(plan.delta_body.columns))
        return contract(Fixpoint(plan.relation, plan.variables, body, delta))
    if isinstance(plan, Closure):
        body = _prune_to(plan.body, frozenset(plan.body.columns))
        return contract(Closure(body, plan.k, plan.deterministic))
    if isinstance(plan, Shared):
        return contract(Shared(_prune_to(plan.child,
                                         frozenset(plan.child.columns))))
    return contract(plan)  # pragma: no cover - future node kinds


# ------------------------------------- 4. greedy join reordering


def _reorder(plan: Plan, cost: CostModel) -> Plan:
    memo: dict = {}

    def rebuild(node: Plan) -> Plan:
        if isinstance(node, Join):
            leaves: list[Plan] = []
            _flatten_joins(node, leaves)
            leaves = [rebuild(leaf) for leaf in leaves]
            return _build_join(leaves, node.columns, cost, memo)
        children = node.children()
        if children:
            new = tuple(rebuild(child) for child in children)
            if any(n is not o for n, o in zip(new, children)):
                return _with_children(node, new)
        return node

    return rebuild(plan)


def _flatten_joins(node: Plan, leaves: list[Plan]) -> None:
    if isinstance(node, Join):
        _flatten_joins(node.left, leaves)
        _flatten_joins(node.right, leaves)
    else:
        leaves.append(node)


def _complement_of(leaf: Plan) -> Plan | None:
    """The ``φ`` of a ``Difference(DomainProduct, φ)`` leaf whose layouts
    align — the shape negation compiles to — or None."""
    if isinstance(leaf, Difference) and isinstance(leaf.left, DomainProduct) \
            and leaf.right.columns == leaf.left.columns:
        return leaf.right
    return None


def _build_join(leaves: list[Plan], target: tuple[str, ...],
                cost: CostModel, memo: dict) -> Plan:
    """Rebuild a flattened conjunction greedily: cheapest leaf first, then
    repeatedly the connected leaf whose join estimates smallest, converting
    covered operands to semijoins and covered complements to antijoins.
    Unconstrained ``DomainProduct`` leaves are dropped and re-introduced
    only for columns nothing else supplies."""
    domain_columns: set[str] = set()
    working: list[Plan] = []
    for leaf in leaves:
        if isinstance(leaf, DomainProduct):
            domain_columns.update(leaf.columns)
        else:
            working.append(leaf)
    covered = set().union(*(leaf.columns for leaf in working)) \
        if working else set()
    uncovered = tuple(sorted(domain_columns - covered))
    if uncovered:
        working.append(DomainProduct(uncovered))
    if not working:
        return DomainProduct(target)

    def leaf_rank(leaf: Plan) -> tuple:
        # Deterministic tie-break so optimization is reproducible.
        return (estimate(leaf, cost, memo), leaf.label())

    current = min(working, key=leaf_rank)
    working.remove(current)
    while working:
        connected = [leaf for leaf in working
                     if set(leaf.columns) & set(current.columns)]
        pool = connected or working

        def join_rank(leaf: Plan) -> tuple:
            return (estimate(_joined(current, leaf), cost, memo), leaf.label())

        choice = min(pool, key=join_rank)
        working.remove(choice)
        current = _joined(current, choice)
    if current.columns != target:
        current = Project(current, target)
    return current


def _joined(current: Plan, leaf: Plan) -> Plan:
    if set(leaf.columns) <= set(current.columns):
        complement = _complement_of(leaf)
        if complement is not None:
            return AntiJoin(current, complement)
        return SemiJoin(current, leaf)
    return Join(current, leaf)


# ------------------------------------- 4b. join/projection fusion


def _fuse_kernels(plan: Plan) -> Plan:
    """Late kernel fusion: ``Project`` folds into the join beneath it (the
    projected rows are emitted — and deduplicated — during the probe loop,
    so the ``|L|·deg``-sized combined result of an ``exists z``
    composition is never materialized), and a layout-aligned
    ``Difference`` becomes an :class:`~repro.logic.plan.AntiJoin`, whose
    identity-key case is a single native set difference instead of a
    per-row loop."""

    def rule(node: Plan) -> Plan:
        if isinstance(node, Project):
            child = node.child
            if isinstance(child, (Join, Product, JoinProject)):
                return JoinProject(child.left, child.right, node.columns)
        if isinstance(node, Difference):
            return AntiJoin(node.left, node.right)
        return node

    return _rewrite(plan, rule)


# ------------------------------------- 4c. demand-driven rewrites
#
# Both rewrites fire only on a *constant* pin (``0`` or ``max``): a
# single-pair query such as GAP asks about one endpoint, so computing the
# relation for every endpoint and selecting one pair afterwards is waste.
# The plan rewrite turns a pinned closure into one BFS; the formula rewrite
# (below, run before lowering) drops a pinned fixed-point argument that
# the body passes through unchanged.


def _seed_closures(plan: Plan) -> Plan:
    return _rewrite(plan, _seed_closure_node)


def _seed_closure_node(plan: Plan) -> Plan:
    """``Select[$0 = c]`` / ``Select[$1 = c]`` over a k=1 closure (through
    ``Shared``) becomes a :class:`~repro.logic.plan.SeededClosure`; every
    other comparison stays in the selection.  A pinned source wins over a
    pinned target (forward BFS needs no transposed edges)."""
    if not isinstance(plan, Select):
        return plan
    closure = plan.child
    while isinstance(closure, Shared):
        closure = closure.child
    if not isinstance(closure, Closure) or closure.k != 1:
        return plan
    for endpoint in (0, 1):
        for index, comparison in enumerate(plan.comparisons):
            constant = _pinned_constant(comparison, endpoint)
            if constant is None:
                continue
            seeded = SeededClosure(closure.body, closure.deterministic,
                                   endpoint, constant)
            rest = plan.comparisons[:index] + plan.comparisons[index + 1:]
            return Select(seeded, rest) if rest else seeded
    return plan


def _pinned_constant(comparison: Comparison, column: int) -> Const | None:
    """The constant ``comparison`` pins ``column`` to, if it is
    ``$column = c`` (either way round)."""
    if comparison.op != "eq":
        return None
    for here, there in ((comparison.left, comparison.right),
                        (comparison.right, comparison.left)):
        if here == Col(column) and isinstance(there, Const):
            return there
    return None


def _demand_formula(formula: Formula) -> Formula:
    """``formula`` with every LFP reduced in arity wherever a constant
    argument meets an invariant fixed-point variable (bottom-up, so nested
    fixed points reduce first).  Returns ``formula`` itself when nothing
    fires.

    ``LFP[R(x1..xk) := φ](t1..tk)`` with ``ti`` a constant and ``xi``
    *invariant* in φ — every ``R`` atom in φ carries ``xi`` itself in
    position i, and nothing in φ rebinds ``xi`` or ``R`` — becomes
    ``LFP[R'(.. no xi ..) := φ[xi := ti]](.. no ti ..)`` over a fresh
    ``R'``, with position i dropped from every ``R`` atom.  Sound by
    induction on the stages: stage m of ``R`` restricted to ``xi = ti``
    equals stage m of ``R'``, because φ only ever reads ``R`` at rows whose
    i-th entry is ``xi`` (see DESIGN.md, "Demand-driven rewrites")."""
    rebuilt = _map_subformulas(formula, _demand_formula)
    if isinstance(rebuilt, LFPAtom):
        rebuilt = _reduce_lfp(rebuilt)
    return rebuilt


def _map_subformulas(formula: Formula, rewrite) -> Formula:
    """``formula`` with ``rewrite`` applied to each direct subformula
    (the same object back when no subformula changed)."""
    if isinstance(formula, (Not, Exists, Forall, CountAtLeast, LFPAtom,
                            TCAtom, DTCAtom)):
        body = rewrite(formula.body)
        return formula if body is formula.body else replace(formula, body=body)
    if isinstance(formula, (And, Or)):
        parts = formula.conjuncts if isinstance(formula, And) \
            else formula.disjuncts
        new = tuple(rewrite(part) for part in parts)
        if all(a is b for a, b in zip(new, parts)):
            return formula
        return type(formula)(new)
    if isinstance(formula, Implies):
        antecedent = rewrite(formula.antecedent)
        consequent = rewrite(formula.consequent)
        if antecedent is formula.antecedent and \
                consequent is formula.consequent:
            return formula
        return Implies(antecedent, consequent)
    return formula


def _reduce_lfp(lfp: LFPAtom) -> LFPAtom:
    while True:
        for position, term in enumerate(lfp.terms):
            if isinstance(term, ConstTerm) and _is_invariant(lfp, position):
                lfp = _drop_argument(lfp, position)
                break
        else:
            return lfp


def _is_invariant(lfp: LFPAtom, position: int) -> bool:
    """Whether fixed-point variable ``position`` of ``lfp`` passes through
    its body unchanged (the syntactic condition of :func:`_demand_formula`;
    conservative: any rebinding of the variable or the relation refuses)."""
    relation, variable = lfp.relation, lfp.variables[position]
    arity = len(lfp.variables)
    for node in walk_formula(lfp.body):
        if isinstance(node, AuxAtom) and node.name == relation:
            if len(node.terms) != arity or \
                    node.terms[position] != VarTerm(variable):
                return False
        elif isinstance(node, (Exists, Forall, CountAtLeast)):
            if node.variable == variable:
                return False
        elif isinstance(node, LFPAtom):
            if node.relation == relation or variable in node.variables:
                return False
        elif isinstance(node, (TCAtom, DTCAtom)):
            if variable in node.source_variables + node.target_variables:
                return False
    return True


def _drop_argument(lfp: LFPAtom, position: int) -> LFPAtom:
    variable, constant = lfp.variables[position], lfp.terms[position]
    taken = {node.name for node in walk_formula(lfp.body)
             if isinstance(node, AuxAtom)}
    taken |= {node.relation for node in walk_formula(lfp.body)
              if isinstance(node, LFPAtom)}
    fresh = f"{lfp.relation}[{variable}={constant}]"
    while fresh in taken:
        fresh += "'"

    def drop(terms: tuple) -> tuple:
        return terms[:position] + terms[position + 1:]

    def pin(term: Term) -> Term:
        return constant if term == VarTerm(variable) else term

    def substitute(node: Formula) -> Formula:
        if isinstance(node, AuxAtom) and node.name == lfp.relation:
            return AuxAtom(fresh, tuple(map(pin, drop(node.terms))))
        if isinstance(node, (RelAtom, AuxAtom)):
            return replace(node, terms=tuple(map(pin, node.terms)))
        if isinstance(node, (EqAtom, LeqAtom)):
            return replace(node, left=pin(node.left), right=pin(node.right))
        node = _map_subformulas(node, substitute)
        if isinstance(node, LFPAtom):
            return replace(node, terms=tuple(map(pin, node.terms)))
        if isinstance(node, (TCAtom, DTCAtom)):
            return replace(node,
                           source_terms=tuple(map(pin, node.source_terms)),
                           target_terms=tuple(map(pin, node.target_terms)))
        return node

    return LFPAtom(fresh, drop(lfp.variables), substitute(lfp.body),
                   drop(lfp.terms))


# --------------------------------- 5. semi-naive delta rewriting


def _depends_on(plan: Plan, relation: str, scan: type = AuxScan) -> bool:
    """Whether ``plan`` reads ``relation`` in the ``scan`` namespace:
    auxiliary relations (:class:`AuxScan`, the default), respecting the
    shadowing of a nested fixed point that rebinds the same name, or the
    structure's base relations (:class:`RelationScan`), which nothing
    shadows."""
    if isinstance(plan, scan):
        return plan.name == relation
    if scan is AuxScan and isinstance(plan, Fixpoint) \
            and plan.relation == relation:
        return False
    return any(_depends_on(child, relation, scan)
               for child in plan.children())


def _is_monotone(plan: Plan, relation: str, scan: type = AuxScan) -> bool:
    """Whether growing ``relation`` (in the ``scan`` namespace, as for
    :func:`_depends_on`) can only grow ``plan``'s value — the polarity
    analysis licensing :class:`~repro.logic.plan.Cumulative` accumulation
    and incremental maintenance (a ``Difference``/``AntiJoin`` flips
    polarity on its right side; DTC closures and unknown nodes are
    conservatively non-monotone)."""
    if not _depends_on(plan, relation, scan):
        return True
    if isinstance(plan, scan):
        return True
    if isinstance(plan, (Select, Project, Rename, Shared, CountSelect)):
        return _is_monotone(plan.children()[0], relation, scan)
    if isinstance(plan, (Join, JoinProject, Product, SemiJoin, Union)):
        return all(_is_monotone(child, relation, scan)
                   for child in plan.children())
    if isinstance(plan, (Difference, AntiJoin)):
        return _is_monotone(plan.left, relation, scan) and \
            _is_antimonotone(plan.right, relation, scan)
    if isinstance(plan, Cumulative):
        return _is_monotone(plan.full, relation, scan)
    if isinstance(plan, Fixpoint):
        # Inflationary iteration stays stage-wise larger only when the body
        # is monotone in the outer relation and in its own.
        return _is_monotone(plan.body, relation, scan) and \
            _is_monotone(plan.body, plan.relation)
    if isinstance(plan, (Closure, SeededClosure)):
        # The DTC reading is non-monotone: a second out-edge *removes* the
        # deterministic edge.
        return not plan.deterministic and \
            _is_monotone(plan.body, relation, scan)
    return False


def _is_antimonotone(plan: Plan, relation: str, scan: type = AuxScan
                     ) -> bool:
    """Whether growing ``relation`` can only *shrink* ``plan``'s value (the
    dual polarity, tracked through difference right sides)."""
    if not _depends_on(plan, relation, scan):
        return True
    if isinstance(plan, scan):
        return False
    if isinstance(plan, (Select, Project, Rename, Shared, CountSelect)):
        return _is_antimonotone(plan.children()[0], relation, scan)
    if isinstance(plan, (Join, JoinProject, Product, SemiJoin, Union)):
        return all(_is_antimonotone(child, relation, scan)
                   for child in plan.children())
    if isinstance(plan, (Difference, AntiJoin)):
        return _is_antimonotone(plan.left, relation, scan) and \
            _is_monotone(plan.right, relation, scan)
    if isinstance(plan, Cumulative):
        return _is_antimonotone(plan.full, relation, scan)
    return False


def differentiate(plan: Plan, relation: str) -> Plan | None:
    """The derivative of ``plan`` with respect to auxiliary ``relation``: a
    plan that — executed with the frontier Δ bound for
    :class:`~repro.logic.plan.DeltaScan` and the accumulated total bound
    for :class:`~repro.logic.plan.AuxScan` — derives every row ``plan``
    produces at the new total but not at the previous one, and nothing
    outside the new value.  ``None`` means ``plan`` does not depend on the
    relation (its derivative is empty).

    The product rule handles the monotone operators; a dependent subtree
    the rule cannot reach (right side of a difference/antijoin, a counting
    group, a nested fixed point) *is its own fallback derivative* — its
    full current value trivially contains whatever it newly contributes —
    so differentiation always succeeds, degrading per-subtree rather than
    per-body.  A derivative that degenerated to its own subtree absorbs
    the enclosing operator: ``Join(a, d(b)) = Join(a, b)`` when ``d(b) is
    b``, so the rule returns the whole node instead of a union that would
    evaluate the fallback work twice.
    """
    if not _depends_on(plan, relation):
        return None
    if isinstance(plan, AuxScan):
        return DeltaScan(plan.name, plan.columns, plan.order)
    if isinstance(plan, Select):
        child = differentiate(plan.child, relation)
        return plan if child is plan.child else Select(child, plan.comparisons)
    if isinstance(plan, Project):
        child = differentiate(plan.child, relation)
        return plan if child is plan.child else Project(child, plan.columns)
    if isinstance(plan, Rename):
        child = differentiate(plan.child, relation)
        return plan if child is plan.child else Rename(child, plan.columns)
    if isinstance(plan, Shared):
        child = differentiate(plan.child, relation)
        return plan if child is plan.child else child
    if isinstance(plan, Union):
        parts = [differentiate(op, relation) for op in plan.operands]
        live = tuple(part for part in parts if part is not None)
        return live[0] if len(live) == 1 else Union(live)
    if isinstance(plan, (Join, Product, SemiJoin, JoinProject)):
        left = differentiate(plan.left, relation)
        right = differentiate(plan.right, relation)
        if left is plan.left or right is plan.right:
            return plan  # a full-fallback side subsumes the delta terms

        def rolled(side: Plan, derivative: Plan | None) -> Plan:
            # The *full* value of the other side, needed each round: a
            # dependent monotone side with a true derivative is maintained
            # incrementally instead of re-derived from scratch.
            if derivative is not None and _is_monotone(side, relation):
                return Cumulative(side, derivative)
            return side

        parts = []
        if left is not None:
            parts.append(_with_children(plan, (left, rolled(plan.right, right))))
        if right is not None:
            parts.append(_with_children(plan, (rolled(plan.left, left), right)))
        return parts[0] if len(parts) == 1 else Union(tuple(parts))
    if isinstance(plan, (Difference, AntiJoin)):
        if not _depends_on(plan.right, relation):
            left = differentiate(plan.left, relation)
            return plan if left is plan.left else \
                type(plan)(left, plan.right)
        return plan  # anti-monotone dependence: full re-derivation
    # CountSelect, nested Fixpoint/Closure, scans cannot be differentiated
    # through: the subtree itself is the (sound) fallback derivative.
    return plan


def _rewrite_fixpoints(plan: Plan) -> Plan:
    def rule(node: Plan) -> Plan:
        if isinstance(node, Fixpoint):
            delta = differentiate(node.body, node.relation)
            if delta is None:
                delta = Empty(node.body.columns)
            return Fixpoint(node.relation, node.variables, node.body, delta)
        return node

    return _rewrite(plan, rule)


# ------------------------------------- 6. common-subplan sharing


#: The nodes whose body runs to a fixed point or a closure.
_RECURSIVE = (Fixpoint, Closure, SeededClosure)


def _share(plan: Plan) -> Plan:
    counts: Counter = Counter()

    def tally(node: Plan) -> None:
        counts[node] += 1
        for child in node.children():
            tally(child)

    tally(plan)
    aux_free: dict[Plan, bool] = {}

    def is_aux_free(node: Plan) -> bool:
        cached = aux_free.get(node)
        if cached is None:
            cached = not isinstance(node, (AuxScan, DeltaScan)) and \
                all(is_aux_free(child) for child in node.children())
            aux_free[node] = cached
        return cached

    def wrap(node: Plan, in_fixpoint: bool) -> Plan:
        if isinstance(node, (Shared, Empty)):
            return node
        if is_aux_free(node):
            # Round-invariant inside a fixed point, or repeated anywhere:
            # one execution per context memo.
            if in_fixpoint or counts[node] > 1:
                return Shared(node)
            # Unique and outside any fixed point: sharing buys nothing.
        elif counts[node] > 1 and node.children() and \
                not isinstance(node, _RECURSIVE):
            # Auxiliary-dependent but repeated within the plan (the stage
            # relation's reversal, say): share per round.
            return Shared(node, volatile=True)
        children = node.children()
        if not children:
            return node
        inner = in_fixpoint or isinstance(node, _RECURSIVE)
        rebuilt = tuple(wrap(child, inner) for child in children)
        if any(new is not old for new, old in zip(rebuilt, children)):
            return _with_children(node, rebuilt)
        return node

    # The root itself is never wrapped: sharing pays off below joins and
    # inside fixpoint bodies, not around the final answer.
    children = plan.children()
    if not children:
        return plan
    inner = isinstance(plan, _RECURSIVE)
    rebuilt = tuple(wrap(child, inner) for child in children)
    if any(new is not old for new, old in zip(rebuilt, children)):
        plan = _with_children(plan, rebuilt)
    return plan


# ------------------------------------------------------------- the pipeline


class PlanInvariantError(Exception):
    """An optimized plan violates a structural invariant — its output
    columns differ from the raw compiled plan's.  The rewrite passes are
    layout-preserving by contract, so this only fires on an optimizer bug
    (or an injected corruption); the evaluation layer responds by falling
    back to the raw plan rather than executing a misshapen one."""


def optimize_plan(plan: Plan, cost: CostModel, governor=None) -> Plan:
    """Run the full rewrite pipeline over a compiled plan.

    Every pass boundary is a governor checkpoint (deadlines and
    cancellation hold during optimization, not just execution) and a chaos
    injection point (``optimize.pass.<name>``).  The output layout is
    validated against the input plan before the result is released.
    """
    passes = (
        ("simplify", _simplify),
        ("pushdown", _pushdown),
        ("simplify", _simplify),
        ("prune", _prune),
        ("simplify", _simplify),
        ("reorder", lambda rewritten: _reorder(rewritten, cost)),
        ("simplify", _simplify),
        ("fuse", _fuse_kernels),
        ("demand", _seed_closures),
        ("delta", _rewrite_fixpoints),
        ("share", _share),
    )
    columns = plan.columns
    for name, rewrite in passes:
        if governor is not None:
            governor.check_time()
        plan = chaos_point(
            f"optimize.pass.{name}", rewrite(plan),
            corrupt=lambda rewritten: Empty(rewritten.columns + ("$corrupt",)))
    if plan.columns != columns:
        raise PlanInvariantError(
            f"optimizer changed the output layout: {columns} -> {plan.columns}"
        )
    return plan


#: Memo for optimized plans, keyed by (formula, layout, cost-model key).
#: Managed by hand rather than ``functools.lru_cache`` so failed
#: optimizations are never cached, chaos tests can clear it, and a governor
#: (never hashable state) stays out of the key.
_PLAN_CACHE = LRUCache(2048)


def clear_plan_cache() -> None:
    """Drop every memoized optimized plan (the chaos fixture calls this so
    armed optimizer faults actually reach the rewrite pipeline)."""
    _PLAN_CACHE.clear()


def _optimized(formula: Formula, variables: tuple[str, ...] | None,
               cost_key: tuple, governor=None) -> Plan:
    key = (formula, variables, cost_key)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = optimize_plan(_demand_lowered(formula, variables),
                             CostModel(cost_key[0], dict(cost_key[1])),
                             governor=governor)
        _PLAN_CACHE.put(key, plan)
    return plan


def _demand_lowered(formula: Formula, variables: tuple[str, ...] | None
                    ) -> Plan:
    """The compiled plan of ``formula`` after the demand formula rewrite
    (chaos point ``optimize.formula.demand``; corrupt: the rewritten
    formula gains a free variable), checked against the layout of the
    formula as written."""
    lowered = compile_formula(formula, variables)
    demanded = chaos_point(
        "optimize.formula.demand", _demand_formula(formula),
        corrupt=lambda rewritten: And((rewritten, EqAtom(
            VarTerm("$corrupt"), VarTerm("$corrupt")))))
    if demanded is formula:
        return lowered
    rewritten = compile_formula(demanded, variables)
    if rewritten.columns != lowered.columns:
        raise PlanInvariantError(
            f"demand rewrite changed the output layout: {lowered.columns} "
            f"-> {rewritten.columns}")
    return rewritten


def optimize_formula(formula: Formula, structure: Structure,
                     variables: Sequence[str] | None = None,
                     governor=None) -> Plan:
    """Compile ``formula`` and optimize the plan against ``structure``'s
    live statistics.  Memoized per (formula, layout, statistics) — a model
    checker answering many assignments optimizes once, and two structures
    with identical statistics share the optimized plan."""
    cost = CostModel.from_structure(structure)
    layout = tuple(variables) if variables is not None else None
    return _optimized(formula, layout, cost.key(), governor=governor)


def explain_optimized(formula: Formula, structure: Structure,
                      variables: Sequence[str] | None = None) -> str:
    """The formula, its logical (as-compiled) plan, and its optimized plan
    annotated with estimated cardinalities — the CLI's ``--explain`` face
    when the optimizer is on."""
    logical = compile_formula(formula,
                              tuple(variables) if variables is not None else None)
    optimized = optimize_formula(formula, structure, variables)
    demanded = _demand_formula(formula)
    cost = CostModel.from_structure(structure)
    memo: dict = {}

    def annotate(node: Plan) -> str:
        return f"   ~{estimate(node, cost, memo):,.0f} rows"

    def indent(text: str) -> str:
        return "\n".join("  " + line for line in text.splitlines())

    rewritten = "" if demanded is formula else \
        "\ndemand-rewritten formula:\n" + pretty(demanded, indent=1)
    return (
        "formula:\n" + pretty(formula, indent=1) + rewritten
        + "\nlogical plan:\n" + indent(logical.explain())
        + "\noptimized plan:\n" + indent(optimized.explain(annotate))
    )


# --------------------------------- 8. maintainability analysis (Dyn-FO / IVM)
#
# The incremental view maintenance layer (repro.logic.ivm) asks, per
# memoized defined relation and per changeset, "can this plan be patched
# in O(change), and how?".  The answer reuses the polarity machinery
# above, passed ``RelationScan`` as the scan namespace so it reads the
# structure's *base* relations, and DeltaScan carries the changeset's
# per-relation delta under a reserved name that cannot collide with any
# formula-level auxiliary.


def base_delta_name(relation: str) -> str:
    """The reserved context-delta key carrying a *base* relation's changed
    rows (auxiliary names come from formulas and can never contain NUL)."""
    return f"{relation}\x00delta"


def differentiate_relation(plan: Plan, relation: str) -> Plan | None:
    """The derivative of ``plan`` with respect to base ``relation``: a plan
    that, executed with the changed rows bound in the context delta under
    :func:`base_delta_name`, derives every row ``plan`` newly produces
    after an insertion into ``relation`` (and, run against the *old*
    structure with the deleted rows bound, every row that may have lost a
    derivation).  Product rule exactly as :func:`differentiate`; ``None``
    means no dependency; a return value that *is* ``plan`` is the fallback
    (full re-derivation) — callers treat it as "not maintainable"."""
    if not _depends_on(plan, relation, RelationScan):
        return None
    if isinstance(plan, RelationScan):
        return DeltaScan(base_delta_name(relation), plan.columns, plan.order)
    if isinstance(plan, Select):
        child = differentiate_relation(plan.child, relation)
        return plan if child is plan.child else Select(child, plan.comparisons)
    if isinstance(plan, Project):
        child = differentiate_relation(plan.child, relation)
        return plan if child is plan.child else Project(child, plan.columns)
    if isinstance(plan, Rename):
        child = differentiate_relation(plan.child, relation)
        return plan if child is plan.child else Rename(child, plan.columns)
    if isinstance(plan, Shared):
        child = differentiate_relation(plan.child, relation)
        return plan if child is plan.child else child
    if isinstance(plan, Union):
        parts = [differentiate_relation(op, relation) for op in plan.operands]
        if any(part is op for part, op in zip(parts, plan.operands)):
            return plan
        live = tuple(part for part in parts if part is not None)
        return live[0] if len(live) == 1 else Union(live)
    if isinstance(plan, (Join, Product, SemiJoin, JoinProject)):
        left = differentiate_relation(plan.left, relation)
        right = differentiate_relation(plan.right, relation)
        if left is plan.left or right is plan.right:
            return plan  # a full-fallback side subsumes the delta terms

        def rolled(side: Plan, derivative: Plan | None) -> Plan:
            if derivative is not None and \
                    _is_monotone(side, relation, RelationScan):
                return Cumulative(side, derivative)
            return side

        parts = []
        if left is not None:
            parts.append(_with_children(plan, (left, rolled(plan.right, right))))
        if right is not None:
            parts.append(_with_children(plan, (rolled(plan.left, left), right)))
        return parts[0] if len(parts) == 1 else Union(tuple(parts))
    if isinstance(plan, (Difference, AntiJoin)):
        if not _depends_on(plan.right, relation, RelationScan):
            left = differentiate_relation(plan.left, relation)
            return plan if left is plan.left else type(plan)(left, plan.right)
        return plan  # anti-monotone dependence: full re-derivation
    # CountSelect, Fixpoint, Closure, domain nodes: the subtree itself is
    # the (sound but full-cost) fallback derivative.
    return plan


def _peel_to_core(plan: Plan) -> tuple[Plan, tuple[int, ...]] | None:
    """Strip row-preserving wrappers (Rename, Shared, bijective Project)
    off the plan root.  Returns ``(core, permutation)`` with
    ``memo_row[i] == core_row[permutation[i]]`` when the core is a
    :class:`Closure` or :class:`Fixpoint` whose rows are fully recoverable
    from the memoized relation, else ``None``."""
    permutation = tuple(range(len(plan.columns)))
    node = plan
    while True:
        if isinstance(node, (Rename, Shared)):
            node = node.children()[0]
        elif isinstance(node, Project):
            child = node.child
            child_columns = list(child.columns)
            if len(set(node.columns)) != len(node.columns):
                return None
            try:
                positions = [child_columns.index(c) for c in node.columns]
            except ValueError:
                return None
            if sorted(positions) != list(range(len(child_columns))):
                return None  # drops a column: the core is not recoverable
            permutation = tuple(positions[p] for p in permutation)
            node = child
        else:
            break
    if isinstance(node, (Closure, Fixpoint)):
        return node, permutation
    return None


@dataclass(frozen=True)
class MaintenancePlan:
    """The maintainability analysis' verdict for one (plan, changeset).

    ``strategy`` is one of:

    * ``"unchanged"`` — the plan reads none of the changed relations.
    * ``"delta"`` — non-recursive and monotone in every changed relation:
      inserts union in the derivative's rows; deletes over-delete the
      derivative's candidates and re-derive each by a support check
      (counting with counts recomputed on demand).
    * ``"closure"`` — the root is a TC :class:`Closure`: Dyn-FO edge
      insertion, DRed over-delete/re-derive per affected source on
      deletion.
    * ``"fixpoint"`` — the root is a :class:`Fixpoint` with a monotone,
      delta-rewritten body: inserts seed semi-naive rounds from the
      memoized total; deletes run DRed over the body derivative.
    * ``"recompute"`` — anything the differentiator flags (a changed
      relation under a ``Difference``/``AntiJoin`` right side or a
      ``CountSelect``, a nested or non-monotone fixed point, a DTC
      closure, an unrecoverable core): the memo entry is dropped and the
      relation recomputed on next use, recorded as
      ``DegradationEvent("ivm", "recompute")``.

    ``core``/``permutation`` (closure/fixpoint strategies) identify the
    recursive node and how memo rows map onto its rows.
    """

    strategy: str
    reason: str = ""
    core: Plan | None = None
    permutation: tuple[int, ...] | None = None


def maintenance_strategy(plan: Plan, changed: frozenset[str]
                         ) -> MaintenancePlan:
    """Pick the maintenance strategy for ``plan`` under a net changeset
    touching the base relations ``changed`` (see :class:`MaintenancePlan`).
    The choice is per *plan*, not per operation kind: a strategy must be
    sound for inserts and deletes alike, since one batch can carry both.
    """
    dependent = frozenset(
        name for name in changed if _depends_on(plan, name, RelationScan))
    if not dependent:
        return MaintenancePlan("unchanged")
    peeled = _peel_to_core(plan)
    if peeled is not None:
        core, permutation = peeled
        if isinstance(core, Closure):
            if core.deterministic:
                return MaintenancePlan(
                    "recompute", "DTC closure is non-monotone under updates")
            if core.k != 1:
                return MaintenancePlan(
                    "recompute", "k-tuple closure (k > 1) maintenance "
                    "degrades to recompute")
            return MaintenancePlan("closure", core=core,
                                   permutation=permutation)
        body = core.body
        for name in sorted(dependent):
            if not _is_monotone(body, name, RelationScan):
                return MaintenancePlan(
                    "recompute", f"fixpoint body non-monotone in {name}")
            if differentiate_relation(body, name) is body:
                return MaintenancePlan(
                    "recompute", f"fixpoint body has no derivative in {name}")
        if not _is_monotone(body, core.relation):
            return MaintenancePlan(
                "recompute",
                f"fixpoint body non-monotone in its own relation "
                f"{core.relation}")
        if core.delta_body is None:
            return MaintenancePlan(
                "recompute", "fixpoint lacks a delta-rewritten body")
        return MaintenancePlan("fixpoint", core=core, permutation=permutation)
    for name in sorted(dependent):
        if not _is_monotone(plan, name, RelationScan):
            return MaintenancePlan(
                "recompute", f"plan non-monotone in {name}")
        if differentiate_relation(plan, name) is plan:
            return MaintenancePlan(
                "recompute",
                f"no derivative in {name} (recursive or counting construct)")
    return MaintenancePlan("delta")
