"""Model checking for FO and its extensions over finite structures.

Evaluation is by brute-force enumeration of the (ordered) universe, which
is exactly the data-complexity reading of the logics: FO sentences are
checked in polynomial time for a fixed formula, LFP by fixed-point
iteration, TC/DTC by closure computation over k-tuples, and the counting
quantifier by counting witnesses.

Three things keep the brute force affordable (see DESIGN.md, "Caching
architecture" and "Semi-naive evaluation"):

* **Memoized fixed points.**  The TC/DTC closure and the LFP fixed point of
  a given operator depend only on the formula and on the auxiliary-relation
  snapshot in scope — not on the first-order assignment.  The checker
  therefore computes each closure/fixed point once per ``(formula,
  auxiliary snapshot)`` and answers every subsequent atom evaluation with a
  set lookup.  Without this, ``define_relation`` over ``n^k`` rows
  recomputes the same closure ``n^k`` times.  Pass ``memoize=False`` to get
  the seed's recompute-every-time behaviour (benchmarks use it as the
  baseline).

* **Semi-naive fixed points.**  Each closure/fixed point is itself computed
  by delta propagation through the engine's relational kernels: TC/DTC
  pairs are extended only from the previous round's frontier against the
  successor index, LFP stages re-examine only the not-yet-derived rows, and
  the DTC unique-successor check cuts each source's target sweep off at the
  second witness.  ``seminaive=False`` keeps the naive re-derive-everything
  strategy (the differential oracle the ``reference`` backend preserves).
  The toggle belongs to the tuple backend alone: the plan executors run
  one delta loop per fixed point, which re-runs the full body each round
  (the naive stage iteration) whenever no delta body was attached.

* **Mutate-and-restore quantifiers.**  ``Exists`` / ``Forall`` /
  ``CountAtLeast`` rebind their variable in place on a single assignment
  dict and restore it afterwards, instead of copying the dict once per
  binding.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from itertools import product
from typing import Mapping

from repro.core.engine import (
    count_bindings,
    exists_binding,
    forall_binding,
    least_fixpoint,
    transitive_closure,
)
from repro.core.errors import ResourceLimitExceeded
from repro.core.governor import Budget, DegradationEvent
from repro.structures.structure import Structure
from repro.testing.chaos import chaos_point

from .codegen import execute_columnar
from .compile import compile_formula
from .optimize import optimize_formula
from .plan import ExecutionContext, PlanStats, RelationScan

from .formula import (
    And,
    AuxAtom,
    ConstTerm,
    CountAtLeast,
    DTCAtom,
    EqAtom,
    Exists,
    FalseFormula,
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
    TrueFormula,
    VarTerm,
    free_variables_of,
)

__all__ = ["LOGIC_BACKENDS", "ModelChecker", "evaluate", "define_relation"]


#: The logic layer's interchangeable evaluation strategies: ``plan``
#: compiles formulas to set-at-a-time relational-algebra plans
#: (:mod:`repro.logic.compile`); ``columnar`` additionally lowers each
#: plan to a specialized Python closure over bitset/CSR kernels
#: (:mod:`repro.logic.codegen`), falling back to the plan interpreter on
#: any columnar-side failure; ``tuple`` is the tuple-at-a-time
#: enumeration below, kept as the differential oracle.
LOGIC_BACKENDS = ("plan", "columnar", "tuple")

#: Sentinel distinguishing "variable was unbound" from "bound to 0".
_UNBOUND = object()


class ModelChecker:
    """Evaluates formulas over a fixed structure.

    ``auxiliary`` optionally supplies interpretations for :class:`AuxAtom`
    relation variables (used internally by LFP iteration, and available to
    callers who want to model-check a formula with a given stage relation).

    ``memoize`` controls the fixed-point/closure cache described in the
    module docstring; leave it on except when measuring the uncached
    baseline.

    ``seminaive`` selects the tuple backend's fixed-point strategy: delta
    propagation through the engine's semi-naive kernels (the default), or
    the naive re-derive-everything iteration (the differential oracle and
    the P2 benchmark baseline).  The two are observationally identical.
    The plan executors ignore it (only the tuple-oracle rung at the bottom
    of their ladder reads it): each has one fixed-point loop, which runs
    the optimizer's delta body when there is one and the full body
    otherwise.

    ``backend`` selects the evaluation strategy (:data:`LOGIC_BACKENDS`):
    ``"tuple"`` (the default here — the recursive enumeration this class
    has always implemented, kept as the differential oracle) or
    ``"plan"``, which compiles each formula once to a set-at-a-time
    relational-algebra plan (:mod:`repro.logic.compile`), executes it
    over the whole structure, and answers every assignment with a row
    lookup; or ``"columnar"``, which additionally lowers each plan to a
    specialized closure over bitset/CSR kernels
    (:mod:`repro.logic.codegen`) and degrades to the plan interpreter on
    any columnar-side failure.  The Session facade picks ``plan`` for
    its production backends (see
    :meth:`repro.core.engine.Session.logic_backend`).

    ``optimize`` (plan backend only, on by default) runs each compiled
    plan through the :mod:`repro.logic.optimize` rewrite pipeline —
    selection pushdown, dead-column pruning, cost-based join reordering,
    semi-naive delta rewriting of fixed points, common-subplan sharing —
    against the structure's live statistics.  ``optimize=False`` executes
    the raw compiled plan, kept as the differential oracle for the
    optimizer itself.  ``plan_stats`` accumulates the plan executions'
    :class:`~repro.logic.plan.PlanStats` counters across this checker's
    lifetime (the CLI's ``--stats``); a caller may swap in its own, or
    ``None`` to count nothing (codegen then runs its untracked kernels).
    """

    def __init__(self, structure: Structure,
                 auxiliary: Mapping[str, frozenset[tuple[int, ...]]] | None = None,
                 memoize: bool = True, seminaive: bool = True,
                 backend: str = "tuple", optimize: bool = True,
                 budget: Budget | None = None):
        if backend not in LOGIC_BACKENDS:
            raise ValueError(
                f"unknown logic backend {backend!r}: expected one of "
                f"{LOGIC_BACKENDS}"
            )
        self.structure = structure
        self.auxiliary = dict(auxiliary or {})
        self.memoize = memoize
        self.seminaive = seminaive
        self.backend = backend
        self.optimize = optimize
        self.budget = budget
        #: The degradation ladder's audit log: one event per rung dropped
        #: (columnar -> optimized plan -> raw plan -> tuple oracle, memo
        #: store skipped).
        self.degradations: list[DegradationEvent] = []
        # The per-call governor minted from ``budget`` by :meth:`_call`;
        # ``None`` whenever no budget is set (the ungoverned fast path).
        self._governor = None
        self.plan_stats = PlanStats()
        # Maps (kind, formula, auxiliary snapshot) -> computed closure /
        # fixed point, and ("plan", formula, auxiliary snapshot, layout)
        # -> (columns, rows) of the formula's defined relation on the plan
        # backends.  Keying on the formula object itself (formulas are
        # frozen, hashable dataclasses) pins it alive, so the entry can
        # never be confused with a different formula.
        self._fixpoint_cache: dict = {}
        # The Shared-subplan memo, reused across every plan this checker
        # executes: entries are auxiliary-free, so they depend only on the
        # structure — :meth:`apply_update` prunes the entries reading a
        # changed relation.
        self._plan_memo: dict = {}
        #: Per-strategy counters from :meth:`apply_update` (how many memo
        #: entries each maintenance strategy handled over this checker's
        #: lifetime) — the CLI's ``--updates`` report.
        self.ivm_stats: dict[str, int] = {}
        # Per-memo-entry maintenance scratch (the closure strategy's
        # edge/reach bitsets), carried across updates so steady-state
        # patches cost O(change).  Entries are trusted only while their
        # recorded rows object *is* the cached one, so a dropped or
        # recomputed memo entry silently invalidates its scratch.
        self._ivm_state: dict = {}
        # Serializes the public entry points: a checker mutates and
        # restores shared state (auxiliary relations, the one _governor
        # slot, both memo tables) during every call, so concurrent
        # threads must take turns.  Reentrant because apply_update's
        # maintenance path re-enters defined_relation on the same
        # checker.  Cross-thread *parallelism* comes from running one
        # checker per thread (or per worker process, as the query
        # service does), not from sharing one.
        self._thread_lock = threading.RLock()

    # -------------------------------------------------------------- terms

    def _term_value(self, term: Term, assignment: Mapping[str, int]) -> int:
        if isinstance(term, VarTerm):
            value = assignment.get(term.name, _UNBOUND)
            if value is _UNBOUND:
                raise KeyError(f"unassigned first-order variable: {term.name}")
            return value
        if isinstance(term, ConstTerm):
            if term.which == "zero":
                return 0
            return self.structure.size - 1
        raise TypeError(f"not a term: {term!r}")

    # ----------------------------------------------------------- formulas

    def evaluate(self, formula: Formula, assignment: Mapping[str, int] | None = None) -> bool:
        """Evaluate ``formula`` under the given variable assignment, under
        the per-call budget and state rollback of :meth:`_call`."""
        # Copy so the quantifiers' in-place rebinding never leaks into the
        # caller's mapping.
        assignment = dict(assignment or {})
        with self._call():
            if self.backend in ("plan", "columnar"):
                return self._eval_plan(formula, assignment)
            return self._eval(formula, assignment)

    def is_memoized(self, formula: Formula,
                    variables: tuple[str, ...] | None = None) -> bool:
        """Whether :meth:`defined_relation` would answer ``formula`` laid
        out over ``variables`` from the plan cache under the auxiliary
        relations now in scope."""
        with self._thread_lock:
            return self._memo_key(formula, variables) in self._fixpoint_cache

    def defined_relation(self, formula: Formula,
                         variables: tuple[str, ...] | None = None
                         ) -> tuple[tuple[str, ...], frozenset]:
        """The relation ``formula`` defines, as ``(columns, rows)`` laid
        out over ``variables`` (default: the formula's free variables,
        sorted) — the one implementation behind :func:`define_relation`.
        Columns the formula leaves unconstrained range over the whole
        universe.

        On the plan backends the rows come down the degradation ladder
        (:meth:`_plan_rows`) through the plan cache, keyed by formula,
        auxiliary snapshot and ``variables`` as given, so repeated calls
        (and :meth:`apply_update` in between) are O(lookup).  On the
        ``tuple`` backend — or when every plan rung fails — they come from
        the governed tuple enumeration, :meth:`_tuple_rows`.
        """
        with self._call():
            if self.backend != "tuple":
                relation = self._plan_relation(formula, variables)
                if relation is not None:
                    return relation
            layout = tuple(variables) if variables is not None \
                else tuple(sorted(free_variables_of(formula)))
            return layout, self._tuple_rows(formula, layout)

    # --------------------------------------------------- incremental updates

    def apply_update(self, changeset) -> "Changeset":
        """Apply ``changeset`` to the structure and maintain every memoized
        defined relation incrementally (Dyn-FO; see :mod:`repro.logic.ivm`).

        Per cached ``("plan", formula, snapshot, layout)`` entry whose
        formula reads a changed relation, the plan optimized for the
        entry's own layout goes through the maintainability analysis
        (:func:`~repro.logic.optimize.maintenance_strategy`), which picks
        delta / closure / fixpoint patching or the recompute fallback; a
        patched value replaces the entry, a fallback — including *any*
        error on the maintenance path — drops it and records a
        ``DegradationEvent("ivm", "recompute")``, so the cache is never
        stale.  Tuple-backend memo kinds (``lfp``/``tc``/``dtc``) and any
        update that grows the universe drop unconditionally.  Returns the
        net :class:`~repro.structures.changeset.Changeset`.
        """
        from .ivm import MaintenanceFallback, maintain, relation_names
        from .optimize import _depends_on, maintenance_strategy

        with self._call() as governor:
            old_relations = dict(self.structure.relations)
            old_size = self.structure.size
            net = self.structure.apply(changeset)
            if not net:
                return net
            try:
                if self.structure.size != old_size:
                    # New labels grew the universe: every quantifier range
                    # and domain product changed, so nothing survives.
                    if self._fixpoint_cache:
                        self.degradations.append(DegradationEvent(
                            "ivm", "recompute",
                            f"universe grew {old_size} -> "
                            f"{self.structure.size}"))
                        self._bump_ivm("recompute", len(self._fixpoint_cache))
                    self._fixpoint_cache.clear()
                    self._plan_memo.clear()
                    return net
                inserted, deleted = net.by_op()
                changed = frozenset(inserted) | frozenset(deleted)
                old_structure = Structure._unchecked(
                    self.structure.vocabulary, old_size, old_relations,
                    self.structure.intern)
                for plan_key in list(self._plan_memo):
                    if any(_depends_on(plan_key, name, RelationScan)
                           for name in changed):
                        del self._plan_memo[plan_key]
                pending = [key for key in self._fixpoint_cache
                           if relation_names(key[1]) & changed]
                try:
                    while pending:
                        key = pending.pop()
                        kind, formula, snapshot = key[:3]
                        if kind != "plan":
                            del self._fixpoint_cache[key]
                            self.degradations.append(DegradationEvent(
                                "ivm", "recompute",
                                f"tuple-backend {kind} memo"))
                            self._bump_ivm("recompute")
                            continue
                        columns, rows = self._fixpoint_cache[key]
                        try:
                            plan = optimize_formula(formula, self.structure,
                                                    key[3], governor=governor)
                            verdict = maintenance_strategy(plan, changed)
                            patched = maintain(
                                plan, verdict, columns, rows, old_structure,
                                self.structure, inserted, deleted,
                                formula=formula,
                                auxiliary=dict(snapshot),
                                support_check=self._support_oracle(
                                    formula, snapshot, columns, governor),
                                stats=self.plan_stats, governor=governor,
                                state=self._ivm_state.setdefault(key, {}))
                            value = (columns, patched)
                            stored = chaos_point(
                                "ivm.memo.patch", value,
                                corrupt=lambda v: (v[0],
                                                   frozenset({("$corrupt",)})))
                            if stored is not value:
                                raise MaintenanceFallback(
                                    "memo patch did not round-trip")
                            self._fixpoint_cache[key] = stored
                            self._bump_ivm(verdict.strategy)
                        except ResourceLimitExceeded:
                            # The budget fired mid-maintenance: this entry
                            # is half-patched and the rest unvisited — drop
                            # them all (never stale), then let the limit
                            # propagate.
                            del self._fixpoint_cache[key]
                            raise
                        except Exception as error:
                            del self._fixpoint_cache[key]
                            self.degradations.append(DegradationEvent(
                                "ivm", "recompute", repr(error)))
                            self._bump_ivm("recompute")
                except BaseException:
                    for key in pending:
                        self._fixpoint_cache.pop(key, None)
                    raise
                return net
            finally:
                if self._ivm_state:
                    self._ivm_state = {
                        key: scratch
                        for key, scratch in self._ivm_state.items()
                        if key in self._fixpoint_cache}

    def _support_oracle(self, formula: Formula, snapshot: frozenset,
                        columns: tuple[str, ...], governor):
        """A ``row -> bool`` membership check against the *post-update*
        structure, through a fresh tuple-backend checker (immune to
        plan-side faults) sharing this call's governor — the ``delta``
        strategy's counting re-check."""
        oracle = ModelChecker(self.structure, auxiliary=dict(snapshot),
                              seminaive=self.seminaive)
        oracle._governor = governor

        def support(row: tuple) -> bool:
            return oracle._eval(formula, dict(zip(columns, row)))

        return support

    def _bump_ivm(self, strategy: str, count: int = 1) -> None:
        self.ivm_stats[strategy] = self.ivm_stats.get(strategy, 0) + count

    @contextmanager
    def _call(self):
        """The frame every public entry point runs in.

        Takes the checker's lock; mints a fresh governor from ``budget``
        for this one call (the caps are per-query; ``None`` without a
        budget, the ungoverned fast path), yields it after one up-front
        time check; and if the call raises, rolls the auxiliary relations
        and both memo tables back to their pre-call state, so one aborted
        evaluation can never poison the next (the mutate-and-restore audit
        the governor's error paths rely on).  The degradation log is
        deliberately left alone: it is an audit trail, not query state.
        """
        with self._thread_lock:
            previous = self._governor
            self._governor = governor = \
                self.budget.start(self.plan_stats) \
                if self.budget is not None else None
            saved_auxiliary = dict(self.auxiliary)
            saved_cache = set(self._fixpoint_cache)
            saved_memo = set(self._plan_memo)
            try:
                if governor is not None:
                    governor.check_time()
                yield governor
            except BaseException:
                self.auxiliary.clear()
                self.auxiliary.update(saved_auxiliary)
                for key in set(self._fixpoint_cache) - saved_cache:
                    del self._fixpoint_cache[key]
                for key in set(self._plan_memo) - saved_memo:
                    del self._plan_memo[key]
                raise
            finally:
                self._governor = previous

    def _memo_key(self, formula: Formula, variables) -> tuple:
        """The plan-cache key of a defined relation.  ``variables=None``
        (the sorted free variables) is a key of its own, so the default
        layout's reads never recompute the formula's free variables."""
        layout = tuple(variables) if variables is not None else None
        return ("plan", formula, self._aux_snapshot(), layout)

    def _plan_relation(self, formula: Formula, variables
                       ) -> tuple[tuple[str, ...], frozenset] | None:
        """The formula's defined relation ``(columns, rows)`` through the
        plan cache — the memo surface :meth:`apply_update` patches.
        ``None`` at the bottom of the degradation ladder (nothing is
        cached then)."""
        key = self._memo_key(formula, variables)
        if self.memoize:
            cached = self._fixpoint_cache.get(key)
            if cached is not None:
                return cached
        relation = self._plan_rows(formula, variables)
        if relation is not None and self.memoize:
            self._memo_store(key, relation)
        return relation

    def _plan_rows(self, formula: Formula, variables
                   ) -> tuple[tuple[str, ...], frozenset] | None:
        """Execute ``formula`` laid out over ``variables`` (``None``: its
        sorted free variables) set-at-a-time down the degradation ladder:
        columnar → optimized plan → raw plan → tuple.

        First the formula is optimized (unless this checker is the
        ``optimize=False`` oracle); any failure doing so — a rewrite
        crash, an injected fault, or a budget blown mid-pipeline — records
        ``DegradationEvent("optimize", "raw-plan")`` and leaves only the
        raw compiled plan.  Then each rung runs in turn:

        * ``columnar`` (``columnar`` backend only): the best plan at hand
          compiled to a specialized bitset/CSR closure;
        * ``plan``: the optimized plan, interpreted;
        * ``raw-plan``: the raw compiled plan, interpreted.

        A rung that fails internally records ``DegradationEvent(stage,
        next rung)`` and hands over to the next one; a
        :class:`ResourceLimitExceeded` is the budget working as intended
        and always propagates.  Every rung gets a fresh execution context,
        so a failed rung cannot leak partial stage state into the next.
        Returns ``(columns, rows)`` of the rung that answered.  Below the
        raw plan lies the tuple oracle, which the caller runs in its own
        form (row enumeration for a defined relation, one assignment for
        :meth:`evaluate`): this returns ``None`` then.
        """
        plan = None
        if self.optimize:
            try:
                plan = optimize_formula(formula, self.structure, variables,
                                        governor=self._governor)
            except Exception as error:
                self.degradations.append(
                    DegradationEvent("optimize", "raw-plan", repr(error)))
        # (stage, fallback, plan); ``None`` stands for the raw compiled
        # plan, lowered on first use.
        rungs = [("columnar", "plan", plan)] \
            if self.backend == "columnar" else []
        if plan is not None:
            rungs.append(("plan", "raw-plan", plan))
        rungs.append(("plan", "tuple", None))
        raw = None
        for stage, fallback, target in rungs:
            if target is None:
                if raw is None:
                    raw = compile_formula(formula, variables)
                target = raw
            try:
                if stage == "columnar":
                    return target.columns, execute_columnar(
                        target, self.structure, auxiliary=self.auxiliary,
                        stats=self.plan_stats, governor=self._governor,
                        degradations=self.degradations)
                context = ExecutionContext(self.structure,
                                           dict(self.auxiliary),
                                           stats=self.plan_stats,
                                           memo=self._plan_memo,
                                           governor=self._governor)
                return target.columns, frozenset(target.execute(context).rows)
            except ResourceLimitExceeded:
                raise
            except Exception as error:
                self.degradations.append(
                    DegradationEvent(stage, fallback, repr(error)))
        return None

    def _tuple_rows(self, formula: Formula, layout: tuple[str, ...]
                    ) -> frozenset:
        """The tuple oracle's defined relation: every row of the universe
        over ``layout`` decided by the recursive evaluator, one assignment
        dict rebound in place (TC/DTC/LFP sub-formulas are closed over once
        through the fixed-point memo when ``memoize``)."""
        rows = set()
        assignment: dict[str, int] = {}
        for row in product(self.structure.universe, repeat=len(layout)):
            for variable, value in zip(layout, row):
                assignment[variable] = value
            if self._eval(formula, assignment):
                rows.add(row)
        return frozenset(rows)

    def _eval_plan(self, formula: Formula, assignment: dict[str, int]) -> bool:
        """Set-at-a-time evaluation: the formula's defined relation over
        its sorted free variables (optimized, executed and cached exactly
        like :meth:`defined_relation`'s), decided by a row lookup."""
        relation = self._plan_relation(formula, None)
        if relation is None:
            # Bottom of the ladder: answer this assignment through the
            # tuple oracle (immune to every plan-side fault by
            # construction); nothing is cached under the "plan" key.
            return self._eval(formula, assignment)
        columns, rows = relation
        values = []
        for column in columns:
            value = assignment.get(column, _UNBOUND)
            if value is _UNBOUND:
                raise KeyError(f"unassigned first-order variable: {column}")
            values.append(value)
        return tuple(values) in rows

    def _eval(self, formula: Formula, assignment: dict[str, int]) -> bool:
        governor = self._governor
        if governor is not None:
            governor.tick()
        if isinstance(formula, TrueFormula):
            return True
        if isinstance(formula, FalseFormula):
            return False
        if isinstance(formula, RelAtom):
            values = tuple(self._term_value(t, assignment) for t in formula.terms)
            return values in self.structure.relation(formula.name)
        if isinstance(formula, AuxAtom):
            values = tuple(self._term_value(t, assignment) for t in formula.terms)
            return values in self.auxiliary.get(formula.name, frozenset())
        if isinstance(formula, EqAtom):
            return self._term_value(formula.left, assignment) == \
                self._term_value(formula.right, assignment)
        if isinstance(formula, LeqAtom):
            return self._term_value(formula.left, assignment) <= \
                self._term_value(formula.right, assignment)
        if isinstance(formula, Not):
            return not self._eval(formula.body, assignment)
        if isinstance(formula, And):
            return all(self._eval(part, assignment) for part in formula.conjuncts)
        if isinstance(formula, Or):
            return any(self._eval(part, assignment) for part in formula.disjuncts)
        if isinstance(formula, Implies):
            return (not self._eval(formula.antecedent, assignment)) or \
                self._eval(formula.consequent, assignment)
        if isinstance(formula, Exists):
            return exists_binding(self.structure.universe, assignment,
                                  formula.variable, self._eval, formula.body)
        if isinstance(formula, Forall):
            return forall_binding(self.structure.universe, assignment,
                                  formula.variable, self._eval, formula.body)
        if isinstance(formula, CountAtLeast):
            threshold = formula.threshold
            if threshold == "half":
                threshold = (self.structure.size + 1) // 2
            witnesses = count_bindings(self.structure.universe, assignment,
                                       formula.variable, self._eval,
                                       formula.body)
            return witnesses >= int(threshold)
        if isinstance(formula, LFPAtom):
            fixed_point = self._lfp(formula)
            values = tuple(self._term_value(t, assignment) for t in formula.terms)
            return values in fixed_point
        if isinstance(formula, TCAtom):
            closure = self._tc(formula, deterministic=False)
            return self._closure_membership(formula, closure, assignment)
        if isinstance(formula, DTCAtom):
            closure = self._tc(formula, deterministic=True)
            return self._closure_membership(formula, closure, assignment)
        raise TypeError(f"cannot evaluate formula node {type(formula).__name__}")

    # ------------------------------------------------------------- fixed points

    def _aux_snapshot(self) -> frozenset:
        """The auxiliary interpretations currently in scope, as a hashable
        cache-key component."""
        return frozenset(self.auxiliary.items())

    def _memo_store(self, key, value) -> None:
        """Store one entry in the fixed-point/relation memo, guarded.

        The governor's ``max_memo_entries`` budget is checked first.  The
        store itself runs through the ``engine.memo.store`` chaos point;
        if the store raises, or hands back anything other than the exact
        value computed (an injected garbling — the identity check is the
        memo layer refusing to index something that did not round-trip),
        the entry is *skipped* with a :class:`DegradationEvent` rather
        than cached: a memo is an optimization, and a lost one can only
        cost time, never correctness.
        """
        if self._governor is not None:
            self._governor.check_memo(len(self._fixpoint_cache) + 1)
        try:
            stored = chaos_point("engine.memo.store", value,
                                 corrupt=lambda entry: frozenset({("$corrupt",)}))
        except ResourceLimitExceeded:
            raise
        except Exception as error:
            self.degradations.append(
                DegradationEvent("memo", "no-memo", repr(error)))
            return
        if stored is not value:
            self.degradations.append(
                DegradationEvent("memo", "no-memo",
                                 "memo store did not round-trip"))
            return
        self._fixpoint_cache[key] = value

    def _lfp(self, formula: LFPAtom) -> frozenset[tuple[int, ...]]:
        """Iterate the (assumed monotone) operator to its least fixed point.

        The result depends only on the formula and the auxiliary snapshot,
        so it is memoized per ``(formula, snapshot)``.
        """
        if self.memoize:
            key = ("lfp", formula, self._aux_snapshot())
            cached = self._fixpoint_cache.get(key)
            if cached is not None:
                return cached
        result = self._compute_lfp(formula)
        if self.memoize:
            self._memo_store(key, result)
        return result

    def _compute_lfp(self, formula: LFPAtom) -> frozenset[tuple[int, ...]]:
        arity = len(formula.variables)
        variables = formula.variables
        relation = formula.relation
        body = formula.body
        rows = list(product(self.structure.universe, repeat=arity))
        # The stage relation is installed on this checker by mutate-and-
        # restore rather than on a fresh per-stage checker, so nested
        # fixed points share this checker's memo table (each stage has a
        # distinct auxiliary snapshot, so entries never collide).  The
        # stage-to-stage iteration itself is the engine's shared
        # least-fixpoint kernel.
        saved = self.auxiliary.get(relation, _UNBOUND)
        assignment: dict[str, int] = {}

        try:
            if self.seminaive:
                return self._lfp_stages_seminaive(rows, variables, relation, body,
                                                  assignment)
            return self._lfp_stages_naive(rows, variables, relation, body,
                                          assignment)
        finally:
            if saved is _UNBOUND:
                self.auxiliary.pop(relation, None)
            else:
                self.auxiliary[relation] = saved
            for variable in variables:
                assignment.pop(variable, None)

    def _lfp_stages_naive(self, rows, variables, relation, body,
                          assignment) -> frozenset[tuple[int, ...]]:
        """Naive stage iteration: every stage sweeps the full row space and
        whole stage relations are compared for stability (the oracle)."""

        def stage_operator(current: frozenset) -> frozenset:
            self.auxiliary[relation] = current
            stage = set(current)
            for row in rows:
                if row in stage:
                    continue
                for variable, value in zip(variables, row):
                    assignment[variable] = value
                if self._eval(body, assignment):
                    stage.add(row)
            return frozenset(stage)

        return least_fixpoint(stage_operator, seminaive=False,
                              governor=self._governor)

    def _lfp_stages_seminaive(self, rows, variables, relation, body,
                              assignment) -> frozenset[tuple[int, ...]]:
        """Semi-naive stage iteration: rows leave the candidate pool the
        stage they are derived, so stage ``i`` re-examines only the rows
        still outside the fixed point (never re-deriving, re-hashing or even
        revisiting the rows already in it), and the iteration stops on an
        empty delta rather than a whole-relation comparison.  The body still
        sees the Jacobi-style previous-stage relation, so the result is
        identical to the naive iteration for every (even non-monotone)
        body.
        """
        remaining = list(rows)

        def delta_step(_delta: frozenset, total: set) -> list[tuple[int, ...]]:
            self.auxiliary[relation] = frozenset(total)
            derived: list[tuple[int, ...]] = []
            survivors: list[tuple[int, ...]] = []
            for row in remaining:
                for variable, value in zip(variables, row):
                    assignment[variable] = value
                if self._eval(body, assignment):
                    derived.append(row)
                else:
                    survivors.append(row)
            remaining[:] = survivors
            return derived

        return least_fixpoint(delta_step=delta_step, governor=self._governor)

    def _edge_relation(self, formula: TCAtom | DTCAtom, deterministic: bool = False
                       ) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The successor relation ``{x̄ -> [ȳ : phi(x̄, ȳ)]}`` — the per-source
        column index the closure kernel joins against.

        With ``deterministic`` (and the semi-naive strategy) the DTC
        unique-successor condition is checked *incrementally*: a source's
        target sweep stops at the second witness, since an out-degree ≥ 2
        source contributes no deterministic edge no matter what the rest of
        the row space says.  The naive oracle keeps the full n^k sweep.
        """
        arity = len(formula.source_variables)
        source_variables = formula.source_variables
        target_variables = formula.target_variables
        body = formula.body
        tuples = list(product(self.structure.universe, repeat=arity))
        short_circuit = deterministic and self.seminaive
        successors: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        assignment: dict[str, int] = {}
        for source in tuples:
            for variable, value in zip(source_variables, source):
                assignment[variable] = value
            targets: list[tuple[int, ...]] = []
            for target in tuples:
                for variable, value in zip(target_variables, target):
                    assignment[variable] = value
                if self._eval(body, assignment):
                    targets.append(target)
                    if short_circuit and len(targets) > 1:
                        break
            successors[source] = tuple(targets)
        return successors

    def _tc(self, formula: TCAtom | DTCAtom, deterministic: bool) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
        if self.memoize:
            key = ("dtc" if deterministic else "tc", formula, self._aux_snapshot())
            cached = self._fixpoint_cache.get(key)
            if cached is not None:
                return cached
        result = self._compute_tc(formula, deterministic)
        if self.memoize:
            self._memo_store(key, result)
        return result

    def _compute_tc(self, formula: TCAtom | DTCAtom, deterministic: bool) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
        # The quantifier sweep that builds the edge relation stays here (it
        # needs the formula evaluator); the closure itself is the engine's
        # shared kernel, which also applies the DTC unique-successor
        # pruning (phi_d(x, x') = phi(x, x') and x' is x's only successor).
        successors = self._edge_relation(formula, deterministic)
        return transitive_closure(successors, deterministic=deterministic,
                                  seminaive=self.seminaive,
                                  governor=self._governor)

    def _closure_membership(self, formula: TCAtom | DTCAtom,
                            closure: set[tuple[tuple[int, ...], tuple[int, ...]]],
                            assignment: dict[str, int]) -> bool:
        source = tuple(self._term_value(t, assignment) for t in formula.source_terms)
        target = tuple(self._term_value(t, assignment) for t in formula.target_terms)
        return (source, target) in closure


def evaluate(formula: Formula, structure: Structure,
             assignment: Mapping[str, int] | None = None,
             backend: str = "tuple", optimize: bool = True,
             budget: Budget | None = None) -> bool:
    """Convenience wrapper around :class:`ModelChecker`."""
    checker = ModelChecker(structure, backend=backend, optimize=optimize,
                           budget=budget)
    return checker.evaluate(formula, assignment)


def define_relation(formula: Formula, structure: Structure,
                    variables: tuple[str, ...],
                    memoize: bool = True,
                    seminaive: bool = True,
                    backend: str = "tuple",
                    optimize: bool = True,
                    stats: PlanStats | None = None,
                    budget: Budget | None = None,
                    degradations: list | None = None) -> frozenset[tuple[int, ...]]:
    """The relation ``{(v1..vk) | structure |= formula[v̄]}`` defined by a
    formula over the layout ``variables`` — a one-shot
    :meth:`ModelChecker.defined_relation` (rows only).

    With ``backend="plan"`` the formula is compiled to a relational plan
    laid out over exactly ``variables`` (columns the formula leaves
    unconstrained range over the whole domain), rewritten by the plan
    optimizer against the structure's statistics (unless
    ``optimize=False``, the optimizer's differential oracle), and executed
    set-at-a-time — no per-row enumeration at all.  ``backend="columnar"``
    further lowers the plan to a specialized bitset/CSR closure
    (:mod:`repro.logic.codegen`).  ``stats`` optionally receives the
    execution's :class:`~repro.logic.plan.PlanStats` counters.

    With the default ``backend="tuple"`` (the oracle), one checker is
    reused across all ``n^k`` rows, so any TC/DTC/LFP sub-formula is
    closed over once (when ``memoize``) instead of once per row, and the
    row assignment is rebound in place.  ``seminaive`` picks the tuple
    backend's fixed-point strategy (see :class:`ModelChecker`); the plan
    executors ignore it.

    A ``budget`` mints a fresh governor for this one definition (either
    backend); plan-side internal failures walk the degradation ladder
    down to the tuple oracle, appending each rung dropped to
    ``degradations`` when a list is supplied.
    """
    checker = ModelChecker(structure, memoize=memoize, seminaive=seminaive,
                           backend=backend, optimize=optimize, budget=budget)
    # The caller's counters replace the checker's own: ``None`` must reach
    # codegen as ``None``, which then runs its untracked kernels.
    checker.plan_stats = stats
    if degradations is not None:
        checker.degradations = degradations
    layout = tuple(variables)
    with checker._call():
        # One shot: the ladder runs without the plan cache, since nothing
        # would read the entry again (and it would count against a
        # budget's ``max_memo_entries``).
        relation = checker._plan_rows(formula, layout) \
            if backend != "tuple" else None
        return relation[1] if relation is not None else \
            checker._tuple_rows(formula, layout)
